// Command spreadd runs a standalone group communication daemon over TCP,
// like the Spread daemon the paper's clients connect to. Daemons are
// configured with a static segment file listing every daemon's name and
// listen address, one per line:
//
//	daemon1 10.0.0.1:4803
//	daemon2 10.0.0.2:4803
//	daemon3 10.0.0.3:4803
//
// Start one daemon per machine:
//
//	spreadd -name daemon1 -config segment.conf
//
// The daemon prints view changes as the overlay membership evolves. (The
// in-process client API attaches within the same process; this binary
// exists to exercise and observe the daemon overlay itself.)
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	_ "repro/internal/ckd" // register both key agreement modules for -join-proto
	_ "repro/internal/cliques"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/flight"
	"repro/internal/spread"
	"repro/internal/transport"
)

// options is everything run needs from the command line.
type options struct {
	name, config string
	heartbeat    time.Duration
	clientListen string
	debugAddr    string
	joinGroup    string
	joinProto    string
	joinDelay    time.Duration
	flightDir    string
	flightMax    int
}

func main() {
	var opt options
	flag.StringVar(&opt.name, "name", "", "this daemon's name (must appear in the config)")
	flag.StringVar(&opt.config, "config", "", "segment configuration file")
	flag.DurationVar(&opt.heartbeat, "heartbeat", 20*time.Millisecond, "heartbeat interval")
	flag.StringVar(&opt.clientListen, "client-listen", "", "optional host:port to serve remote clients on")
	flag.StringVar(&opt.debugAddr, "debug-addr", "", "optional host:port for the introspection endpoints that sgcmon and sgctrace poll (/metrics, /trace, /healthz, /readyz, /debug/pprof)")
	flag.StringVar(&opt.joinGroup, "join-group", "", "optional: run an embedded secure client that joins this group (its rekeys land in this daemon's /trace and /metrics)")
	flag.StringVar(&opt.joinProto, "join-proto", "cliques", "embedded client key agreement protocol: cliques|ckd")
	flag.DurationVar(&opt.joinDelay, "join-delay", 0, "wait this long after the full daemon view before the embedded client joins (stagger across daemons to get join-classified rekeys)")
	flag.StringVar(&opt.flightDir, "flight-dir", "", "optional directory for flight-recorder bundles (anomaly watchdog + SIGQUIT dumps)")
	flag.IntVar(&opt.flightMax, "flight-max", flight.DefaultMaxBundles, "retention cap on flight bundles")
	flag.Parse()

	if err := run(opt); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(opt options) error {
	name, config, heartbeat := opt.name, opt.config, opt.heartbeat
	clientListen, debugAddr := opt.clientListen, opt.debugAddr
	joinGroup, joinProto, joinDelay := opt.joinGroup, opt.joinProto, opt.joinDelay
	if name == "" || config == "" {
		return fmt.Errorf("both -name and -config are required")
	}
	addrs, err := parseConfig(config)
	if err != nil {
		return err
	}
	if _, ok := addrs[name]; !ok {
		return fmt.Errorf("daemon %q not in configuration %s", name, config)
	}

	nw := transport.NewTCPNetwork(addrs)
	peers := make([]string, 0, len(addrs))
	for p := range addrs {
		peers = append(peers, p)
	}
	d, err := spread.NewDaemon(name, peers, nw, spread.Config{Heartbeat: heartbeat})
	if err != nil {
		return err
	}
	log.Printf("daemon %s listening on %s with peers %v", name, addrs[name], peers)
	if clientListen != "" {
		ln, err := d.ListenClients(clientListen)
		if err != nil {
			d.Stop()
			return err
		}
		log.Printf("daemon %s serving remote clients on %s", name, ln.Addr())
	}
	var debug *http.Server
	if debugAddr != "" {
		ln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			d.Stop()
			return fmt.Errorf("debug listener: %w", err)
		}
		// /readyz answers from the daemon's own health view; sgcmon polls
		// /trace?since and /metrics.
		debug = &http.Server{Handler: obs.Mux(d.Obs(), obs.WithReadiness(d.Readiness))}
		go func() {
			if err := debug.Serve(ln); err != http.ErrServerClosed {
				log.Printf("debug server: %v", err)
			}
		}()
		log.Printf("daemon %s serving introspection on http://%s/metrics", name, ln.Addr())
	}

	shutdown := make(chan struct{})

	// Flight recorder: a watchdog evaluates the anomaly detectors over
	// this daemon's own ring plus the transport link state, and dumps a
	// diagnostics bundle when an alert first fires; SIGQUIT forces one.
	var flightRec *flight.Recorder
	if opt.flightDir != "" {
		flightRec = flight.New(d.Obs(), flight.Options{
			Dir:        opt.flightDir,
			MaxBundles: opt.flightMax,
			State: func() any {
				return map[string]any{
					"stats": d.Stats(),
					"peers": d.PeerStatus(),
				}
			},
		})
		peerSource := func() []string {
			var out []string
			for _, ps := range d.PeerStatus() {
				if !ps.Up {
					out = append(out, fmt.Sprintf("peer link down: %s (%d frames queued)", ps.Peer, ps.QueueFrames))
				}
			}
			return out
		}
		go flightRec.Watch(2*time.Second, shutdown,
			flight.AnomalySource(d.Obs(), analyze.Options{}), peerSource)

		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		go func() {
			for {
				select {
				case <-shutdown:
					return
				case <-quit:
					if dir, err := flightRec.TriggerForce("SIGQUIT", nil); err != nil {
						log.Printf("flight bundle failed: %v", err)
					} else {
						log.Printf("flight bundle written: %s", dir)
					}
				}
			}
		}()
		log.Printf("daemon %s flight recorder armed: %s (max %d bundles)", name, opt.flightDir, opt.flightMax)
	}
	var clients sync.WaitGroup
	if joinGroup != "" {
		clients.Add(1)
		go func() {
			defer clients.Done()
			embeddedClient(d, len(peers), joinGroup, joinProto, joinDelay, shutdown)
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)

	// Log view changes until interrupted.
	last := spread.ViewID{}
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			// Graceful shutdown, in dependency order: the embedded client
			// disconnects (its leave propagates a clean membership change),
			// the introspection server drains, and only then does the
			// daemon stop — so peers observe an orderly departure rather
			// than a crash. A second signal aborts immediately.
			log.Printf("daemon %s shutting down", name)
			signal.Stop(stop)
			close(shutdown)
			waitOrSignal(&clients, 3*time.Second)
			if debug != nil {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				_ = debug.Shutdown(ctx)
				cancel()
			}
			d.Stop()
			log.Printf("daemon %s stopped", name)
			return nil
		case <-ticker.C:
			v, ok := d.CurrentView()
			if !ok {
				continue
			}
			if v.ID != last {
				last = v.ID
				log.Printf("view %s: members %v", v.ID, v.Members)
			}
		}
	}
}

// waitOrSignal waits for the group, bounded by a timeout so a wedged client
// cannot hold shutdown hostage.
func waitOrSignal(wg *sync.WaitGroup, timeout time.Duration) {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(timeout):
		log.Printf("embedded client did not stop within %v; continuing shutdown", timeout)
	}
}

// embeddedClient runs an in-process secure session on this daemon: it
// waits for the full daemon view, sleeps the configured stagger, joins the
// group, and answers every SecureView with one multicast (so each rekey
// completes its first-send phase). It shares the daemon's observability
// scope, so the client's flush/KGA/key-install events are served by the
// same /trace endpoint sgctrace collects from.
//
// The session auto-reconnects: if the event stream ends for any reason
// other than shutdown (the daemon dropped the session), the client redials
// and rejoins with capped exponential backoff, so a daemon that restarts
// picks its secure session back up without operator action.
func embeddedClient(d *spread.Daemon, fullView int, group, proto string, delay time.Duration, stop <-chan struct{}) {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		v, ok := d.CurrentView()
		if !ok {
			return // daemon stopped
		}
		if len(v.Members) >= fullView {
			break
		}
		if time.Now().After(deadline) {
			log.Printf("embedded client: full %d-daemon view never formed; joining anyway", fullView)
			break
		}
		if !sleepOrStop(50*time.Millisecond, stop) {
			return
		}
	}
	if !sleepOrStop(delay, stop) {
		return
	}

	backoff := 100 * time.Millisecond
	for attempt := 0; ; attempt++ {
		select {
		case <-stop:
			return
		default:
		}
		if attempt > 0 {
			if !sleepOrStop(backoff, stop) {
				return
			}
			if backoff *= 2; backoff > 5*time.Second {
				backoff = 5 * time.Second
			}
		}
		ep, err := d.Connect("app")
		if err != nil {
			log.Printf("embedded client: connect: %v (retrying)", err)
			continue
		}
		conn := core.New(ep, core.WithObs(d.Obs()))
		if err := conn.Join(group, proto, crypt.SuiteBlowfish); err != nil {
			log.Printf("embedded client: join %s: %v (retrying)", group, err)
			_ = conn.Disconnect()
			continue
		}
		log.Printf("embedded client %s joining group %q (%s)", conn.Name(), group, proto)
		backoff = 100 * time.Millisecond
		if done := clientSession(conn, group, stop); done {
			return
		}
		log.Printf("embedded client: session ended; reconnecting")
	}
}

// clientSession consumes one connection's event stream. It returns true
// when shutdown was requested (the session was disconnected cleanly) and
// false when the stream ended on its own — the caller reconnects.
func clientSession(conn *core.Conn, group string, stop <-chan struct{}) bool {
	for {
		select {
		case <-stop:
			_ = conn.Leave(group)
			_ = conn.Disconnect()
			// Drain so the core loop can finish delivering.
			for range conn.Events() {
			}
			return true
		case ev, ok := <-conn.Events():
			if !ok {
				return false
			}
			switch e := ev.(type) {
			case core.SecureView:
				log.Printf("embedded client: secure view epoch=%d members=%v", e.Epoch, e.Members)
				_ = conn.Multicast(group, []byte("hello from "+conn.Name()))
			case core.Message:
				log.Printf("embedded client: message from %s: %s", e.Sender, e.Data)
			case core.Warning:
				log.Printf("embedded client: warning: %v", e.Err)
			}
		}
	}
}

// sleepOrStop sleeps d, returning false if shutdown arrived first.
func sleepOrStop(d time.Duration, stop <-chan struct{}) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}

func parseConfig(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	addrs := make(map[string]string)
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want \"name host:port\", got %q", path, line, text)
		}
		addrs[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("%s: no daemons configured", path)
	}
	return addrs, nil
}
