package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"strings"
)

// Live introspection endpoints (cmd/spreadd -debug-addr):
//
//	/metrics          expvar-style JSON: the node's registry plus the
//	                  process-global Default registry (runtime gauges are
//	                  sampled into Default on every scrape)
//	/trace?group=G    the node's recent causal event ring, optionally
//	                  filtered to one group; &text=1 renders plain lines;
//	                  &since=SEQ returns only events past the cursor with
//	                  an explicit truncated marker when the ring wrapped
//	                  past it
//	/healthz          liveness probe: 200 while the process serves
//	/readyz           readiness probe: 503 with a JSON reason while the
//	                  node is degraded (see WithReadiness)
//	/debug/pprof/     the standard runtime profiles
//
// Every response is compact JSON except /trace?text=1 and the pprof
// pages: the readers are programs (sgctrace collect, sgcmon, the smoke
// scripts), so the replies carry no indentation. /trace?since and
// /metrics are the one incremental export: sgcmon polls both per node
// per interval, and the daemon keeps no per-reader state.

// MetricsPayload is the /metrics JSON response shape. sgctrace decodes it
// when collecting snapshot bundles from a live cluster.
type MetricsPayload struct {
	Node    string   `json:"node"`
	Metrics Snapshot `json:"metrics"`
	Process Snapshot `json:"process"`
}

// TracePayload is the /trace JSON response shape. NextSince and Truncated
// are only meaningful for cursor reads (?since=SEQ): NextSince is the
// cursor to resume from, Truncated reports that the ring wrapped past the
// cursor and events were lost before they could be read.
type TracePayload struct {
	Node      string  `json:"node"`
	Group     string  `json:"group,omitempty"`
	Total     uint64  `json:"total_recorded"`
	Events    []Event `json:"events"`
	NextSince uint64  `json:"next_since,omitempty"`
	Truncated bool    `json:"truncated,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// MuxOption extends the debug handler built by Mux.
type MuxOption func(*muxConfig)

type muxConfig struct {
	ready func() error
}

// WithReadiness installs the /readyz probe: fn is called per request and
// a non-nil error renders 503 with the error as the JSON reason. Without
// it /readyz mirrors /healthz (an undegradeable node is always ready).
func WithReadiness(fn func() error) MuxOption {
	return func(c *muxConfig) { c.ready = fn }
}

// Mux builds the debug HTTP handler for one node's scope.
func Mux(sc *Scope, opts ...MuxOption) *http.ServeMux {
	var cfg muxConfig
	for _, o := range opts {
		o(&cfg)
	}
	mux := http.NewServeMux()

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		SampleRuntime(Default)
		p := MetricsPayload{Node: sc.Node, Process: Default.Snapshot()}
		if sc.Reg != nil {
			p.Metrics = sc.Reg.Snapshot()
		}
		writeJSON(w, http.StatusOK, p)
	})

	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		group := q.Get("group")
		p := TracePayload{Node: sc.Node, Group: group}
		if sinceArg := q.Get("since"); sinceArg != "" {
			since, err := strconv.ParseUint(sinceArg, 10, 64)
			if err != nil {
				http.Error(w, "bad since cursor: "+err.Error(), http.StatusBadRequest)
				return
			}
			events, next, truncated := sc.Rec.EventsSince(since)
			p.Events, p.NextSince, p.Truncated = FilterGroup(events, group), next, truncated
			p.Total = next
		} else {
			p.Events = sc.Rec.GroupEvents(group)
			p.Total = sc.Rec.Total()
		}
		if q.Get("text") != "" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if p.Truncated {
				_, _ = w.Write([]byte("... (ring wrapped past cursor: events lost)\n"))
			}
			for _, e := range p.Events {
				_, _ = w.Write([]byte(e.String() + "\n"))
			}
			return
		}
		writeJSON(w, http.StatusOK, p)
	})

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "node": sc.Node})
	})

	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if cfg.ready != nil {
			if err := cfg.ready(); err != nil {
				writeJSON(w, http.StatusServiceUnavailable, map[string]string{
					"status": "degraded", "node": sc.Node, "reason": err.Error(),
				})
				return
			}
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready", "node": sc.Node})
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	return mux
}

// Endpoint names one node's introspection endpoint (a Mux, as served by
// spreadd -debug-addr).
type Endpoint struct{ Name, Addr string }

// ParseEndpoints parses the name=http://host:port arguments of the tools
// that scrape a fleet (sgctrace collect, sgcmon); trailing slashes are
// trimmed so paths can be appended.
func ParseEndpoints(args []string) ([]Endpoint, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("no endpoints; expected name=http://host:port arguments")
	}
	out := make([]Endpoint, 0, len(args))
	for _, a := range args {
		name, addr, ok := strings.Cut(a, "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("bad endpoint %q (want name=http://host:port)", a)
		}
		out = append(out, Endpoint{Name: name, Addr: strings.TrimRight(addr, "/")})
	}
	return out, nil
}

// FetchJSON GETs addr+path with the query q (nil for none) and decodes the
// JSON reply into v; a status other than 200 is an error. It is the one
// client of the endpoints above (sgctrace collect, sgcmon).
func FetchJSON(cl *http.Client, addr, path string, q url.Values, v any) error {
	u := addr + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	resp, err := cl.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", u, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
