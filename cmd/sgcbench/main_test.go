package main

import (
	"strings"
	"testing"
)

// TestBenchTables smoke-tests the cheap experiments end to end (the
// figures are excluded: they run timed measurement batches).
func TestBenchTables(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke test in -short mode")
	}
	for _, exp := range []string{"table2", "table3", "table4"} {
		exp := exp
		t.Run(exp, func(t *testing.T) {
			if err := run(exp, 6, 3, 1, 512, 1, 0, "both"); err != nil {
				t.Fatalf("%s: %v", exp, err)
			}
		})
	}
}

// TestBenchChaosMode smoke-tests the chaos experiment: a short schedule
// under one protocol must replay and pass all invariants. The metrics the
// run aggregates are asserted in internal/chaos.
func TestBenchChaosMode(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke test in -short mode")
	}
	if err := run("chaos", 0, 0, 0, 0, 2, 12, "cliques"); err != nil {
		t.Fatalf("chaos: %v", err)
	}
}

// TestBenchUnknownExperiment checks the error paths: an unknown experiment
// name and an unknown chaos protocol must be rejected.
func TestBenchUnknownExperiment(t *testing.T) {
	if err := run("tableX", 0, 0, 0, 0, 1, 0, "both"); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("unknown experiment error = %v", err)
	}
	if err := run("chaos", 0, 0, 0, 0, 1, 12, "telepathy"); err == nil || !strings.Contains(err.Error(), "unknown chaos protocol") {
		t.Errorf("unknown chaos protocol error = %v", err)
	}
}
