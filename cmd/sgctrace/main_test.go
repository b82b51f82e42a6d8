package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

// fakeDaemon serves one node's debug endpoints from a real scope with a
// synthetic fully-phased join rekey in its ring.
func fakeDaemon(t *testing.T, node string) *httptest.Server {
	t.Helper()
	sc := obs.NewScope(node, "test")
	sc.Reg.Counter("wire_msgs{send}").Add(3)
	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	at := func(ms int, comp, kind string, mut func(*obs.Event)) {
		ev := obs.Event{T: base.Add(time.Duration(ms) * time.Millisecond),
			Comp: comp, Kind: kind, Group: "chat"}
		if mut != nil {
			mut(&ev)
		}
		sc.Record(ev)
	}
	view := func(v string) func(*obs.Event) {
		return func(e *obs.Event) { e.View = v }
	}
	at(0, "flush", "flush-request", view("v7"))
	at(10, "flush", "vs-view-install", func(e *obs.Event) {
		e.View = "v7"
		e.Detail = "members=[a#d1 b#d1] round=1"
	})
	at(14, "core", "plan", func(e *obs.Event) {
		e.View = "v7"
		e.Detail = "class=join ops=[join]"
	})
	at(20, "cliques", "kga-state", func(e *obs.Event) {
		e.View = "v7"
		e.Detail = "round=1 collecting->distributing"
	})
	at(34, "core", "key-install", func(e *obs.Event) {
		e.View = "v7"
		e.KeyEpoch = 3
		e.Detail = "class=join members=[a#d1 b#d1] controller=a#d1"
	})
	at(40, "core", "first-send", func(e *obs.Event) { e.KeyEpoch = 3 })
	return httptest.NewServer(obs.Mux(sc))
}

// TestCollectAgainstFakeDaemons runs collect against two live fake daemons
// plus one unreachable endpoint: the bundle must carry both healthy nodes'
// traces and retain the dead node as unhealthy, and the report over the
// bundle must show the correlated join rekey.
func TestCollectAgainstFakeDaemons(t *testing.T) {
	d1 := fakeDaemon(t, "a#d1")
	defer d1.Close()
	d2 := fakeDaemon(t, "b#d1")
	defer d2.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // now refuses connections

	cl := &http.Client{Timeout: 2 * time.Second}
	b := collect(cl, []obs.Endpoint{
		{Name: "d1", Addr: d1.URL},
		{Name: "d2", Addr: d2.URL},
		{Name: "d3", Addr: dead.URL},
	}, "chat")

	if got := b.Healthy(); got != 2 {
		t.Fatalf("healthy nodes = %d, want 2", got)
	}
	if len(b.Nodes) != 3 {
		t.Fatalf("bundle has %d nodes, want 3 (unreachable node must be retained)", len(b.Nodes))
	}
	deadNode := b.Nodes[2]
	if deadNode.Healthy || deadNode.Error == "" {
		t.Fatalf("unreachable node not marked: %+v", deadNode)
	}
	// Node names come from the daemon's own payload when it answers.
	if b.Nodes[0].Node != "a#d1" || b.Nodes[1].Node != "b#d1" {
		t.Errorf("node names = %q, %q; want payload names", b.Nodes[0].Node, b.Nodes[1].Node)
	}
	if b.Nodes[0].Metrics.Counters["wire_msgs{send}"] != 3 {
		t.Errorf("metrics not collected: %+v", b.Nodes[0].Metrics.Counters)
	}
	if len(b.Nodes[0].Events) != 6 {
		t.Errorf("node events = %d, want 6", len(b.Nodes[0].Events))
	}

	// Round-trip the bundle through a file and the report path.
	path := filepath.Join(t.TempDir(), "bundle.json")
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := report(&sb, path, false, analyze.Options{Group: "chat"}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"node d3", "UNREACHABLE",
		"class=join", "size=2", "nodes=2", "fully-phased=true",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	// JSON mode must emit a decodable analyze.Report with the same rekey.
	sb.Reset()
	if err := report(&sb, path, true, analyze.Options{Group: "chat"}); err != nil {
		t.Fatal(err)
	}
	var rep analyze.Report
	if err := json.Unmarshal([]byte(sb.String()), &rep); err != nil {
		t.Fatalf("report -json not decodable: %v", err)
	}
	if len(rep.Rekeys) != 1 || len(rep.Rekeys[0].Nodes) != 2 {
		t.Fatalf("JSON report rekeys = %+v", rep.Rekeys)
	}
}

// TestCollectAllUnreachable checks the CLI-level failure when nothing
// answers (a bundle of only unhealthy nodes is useless).
func TestCollectAllUnreachable(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	cl := &http.Client{Timeout: time.Second}
	b := collect(cl, []obs.Endpoint{{Name: "d1", Addr: dead.URL}}, "")
	if b.Healthy() != 0 || len(b.Nodes) != 1 || b.Nodes[0].Error == "" {
		t.Fatalf("bundle = %+v", b)
	}
}

// TestCollectGroupFilter collects one daemon's trace filtered to each
// group: the bundle holds that group's events plus the group-less ones. A
// group name with a query metacharacter must reach the daemon intact.
func TestCollectGroupFilter(t *testing.T) {
	sc := obs.NewScope("d1", "test")
	for _, e := range []obs.Event{
		{Comp: "spread", Kind: "view-install"},
		{Comp: "core", Kind: "key-install", Group: "a"},
		{Comp: "core", Kind: "key-install", Group: "a&b"},
		{Comp: "core", Kind: "first-send", Group: "a&b"},
	} {
		sc.Record(e)
	}
	srv := httptest.NewServer(obs.Mux(sc))
	defer srv.Close()
	cl := &http.Client{Timeout: 2 * time.Second}

	for _, c := range []struct {
		group string
		want  []string
	}{
		{"a", []string{"/view-install", "a/key-install"}},
		{"a&b", []string{"/view-install", "a&b/key-install", "a&b/first-send"}},
	} {
		b := collect(cl, []obs.Endpoint{{Name: "d1", Addr: srv.URL}}, c.group)
		var got []string
		for _, e := range b.Nodes[0].Events {
			got = append(got, e.Group+"/"+e.Kind)
		}
		if strings.Join(got, " ") != strings.Join(c.want, " ") {
			t.Errorf("collect -group %q = %v, want %v", c.group, got, c.want)
		}
	}
}
