GO ?= go

.PHONY: check fmt vet no-gob layering one-injector build test race chaos chaos-tcp chaos-tcp-short \
	obs-smoke mon-smoke crit-smoke fuzz-smoke

## check: the full local gate — gofmt (fmt), vet, the one-wire-format guard (no-gob),
## the DESIGN.md §6 import graph (layering), the one-fault-injector guard
## (one-injector), build, tests, the race suite
## on the packages with concurrency-sensitive fast paths, a short chaos
## schedule replayed over real TCP sockets, and the causal-order gate.
## Performance is gated by the benchmark (`bash benchmark/run.sh`) and the
## exact-count tests, not here.
check: fmt vet no-gob layering one-injector build test race chaos-tcp-short crit-smoke

## fmt: every Go file in the repository, benchmark/ included, is
## gofmt-clean; the target lists the files that are not and fails.
fmt:
	@files=$$(gofmt -l .) && [ -z "$$files" ] || { echo "not gofmt-clean:"; echo "$$files"; exit 1; }

vet:
	$(GO) vet ./...

## no-gob: the wire formats have one generation (internal/wirecodec);
## encoding/gob may appear only on the remote-client stream and in tests.
no-gob:
	@! grep -rl --include='*.go' '"encoding/gob"' . | grep -v -e '_test\.go$$' -e '^\./benchmark/' -e '^\./internal/spread/remote\.go$$'

## layering: the daemon, transport and flush layers carry no key agreement
## or cipher code — keys live in the client library (DESIGN.md §6).
layering:
	@deps=$$($(GO) list -deps ./internal/transport ./internal/spread ./internal/flush) && ! echo "$$deps" | grep -E '^repro/internal/(ckd|cliques|crypt|blowfish|core)$$'

## one-injector: faults live only in internal/transport/faultnet
## (DESIGN.md §11); no other non-test file defines a fault-injection
## method, so MemNetwork stays a plain FIFO fabric.
one-injector:
	@! grep -rnE --include='*.go' '^func \([^)]*\) (Partition|Heal|SetDropRate|SetLatency|SetSeed)\(' . | grep -v -e '_test\.go:' -e '^\./internal/transport/faultnet/'

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/dh ./internal/cliques ./internal/ckd ./internal/blowfish ./internal/crypt \
		./internal/spread ./internal/flush ./internal/core \
		./internal/transport/... ./internal/obs/... ./cmd/sgcmon

## chaos: the deterministic fault-schedule matrix (8 seeds x 2 protocols,
## 6 cluster-wide invariants) under the race detector. A failing seed
## reproduces with: go test ./internal/chaos -run TestChaos -chaos.seed=N
chaos:
	$(GO) test -race -timeout 3000s ./internal/chaos

## chaos-tcp: seeded fault schedules (partition/heal, crash/restart, link
## reset under load) replayed over real TCP sockets through the faultnet
## relay, under the race detector — the redial supervisor, bounded send
## queues, and peer-down eviction all run against live kernel connections.
chaos-tcp:
	$(GO) test -race -timeout 600s -count=1 ./internal/chaos -run TestChaosTCP -v

## chaos-tcp-short: the make-check smoke — one short reset-heavy TCP
## schedule, sized to finish in seconds.
chaos-tcp-short:
	$(GO) test -timeout 120s -count=1 ./internal/chaos -run TestChaosTCPShort

## crit-smoke: the causal-order gate — the happens-before checker's unit
## suite plus pinned chaos schedules replayed in-memory, with host clocks
## skewed seconds apart, and over real TCP, all of which must satisfy
## invariant I6; the trace analyzer must also extract a fully-connected
## rekey critical path from a live run.
crit-smoke:
	$(GO) test -timeout 300s -count=1 ./internal/obs/causal ./internal/chaos \
		-run 'TestHappensBefore|TestCheck|TestCriticalPath|TestLookup|TestBuild|TestChaosCausalDifferential|TestChaosCriticalPathConnected'

## fuzz-smoke: ten seconds of coverage-guided fuzzing each for the
## Blowfish-CBC kernel against crypto/cipher's CBC (FuzzCBC), for the
## suites' seal/open round trip (FuzzSuiteRoundTrip), for TCP frame
## reads through a buffered reader against one-byte reads (FuzzReadFrame),
## and for the group-element Jacobi kernel against big.Jacobi (FuzzJacobi).
## Kept out of `check` so the local gate stays fast; CI runs it as its own
## step.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzCBC$$' -fuzztime 10s ./internal/blowfish
	$(GO) test -run '^$$' -fuzz '^FuzzSuiteRoundTrip$$' -fuzztime 10s ./internal/crypt
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzJacobi$$' -fuzztime 10s ./internal/dh

## obs-smoke: boot a 3-daemon TCP cluster with -debug-addr and embedded
## secure clients, curl the introspection endpoints, then run the sgctrace
## collect -> report pipeline and assert a fully-phased join rekey.
obs-smoke:
	./scripts/obs-smoke.sh

## mon-smoke: the live-monitoring gate — 3-daemon TCP cluster with
## polled introspection endpoints and armed flight recorders; sgcmon's one-shot
## evaluation must pass on the healthy fleet (exit 0), alert after a
## daemon is killed (exit 3), and the survivors' flight bundles must
## re-read through sgctrace report.
mon-smoke:
	./scripts/mon-smoke.sh
