package bench

import (
	"testing"
	"time"

	"repro/internal/dh"
)

func TestJoinCountsMatchPaper(t *testing.T) {
	for _, proto := range []string{"cliques", "ckd"} {
		for _, n := range []int{2, 4, 8} {
			c, err := JoinCounts(proto, n)
			if err != nil {
				t.Fatalf("%s n=%d: %v", proto, n, err)
			}
			if c.SerialTotal != c.PaperSerial {
				t.Errorf("%s join n=%d: serial %d != paper %d", proto, n, c.SerialTotal, c.PaperSerial)
			}
		}
	}
}

func TestLeaveCountsMatchPaper(t *testing.T) {
	for _, proto := range []string{"cliques", "ckd"} {
		for _, ctrlLeaves := range []bool{false, true} {
			for _, n := range []int{3, 5, 8} {
				c, err := LeaveCounts(proto, n, ctrlLeaves)
				if err != nil {
					t.Fatalf("%s n=%d ctrl=%v: %v", proto, n, ctrlLeaves, err)
				}
				if c.SerialTotal != c.PaperSerial {
					t.Errorf("%s leave n=%d ctrl=%v: serial %d != paper %d",
						proto, n, ctrlLeaves, c.SerialTotal, c.PaperSerial)
				}
			}
		}
	}
}

func TestTable4(t *testing.T) {
	for _, proto := range []string{"cliques", "ckd"} {
		row, err := Table4(proto, 6)
		if err != nil {
			t.Fatal(err)
		}
		if row.Join != row.PaperJoin || row.Leave != row.PaperLeave || row.CtrlLeave != row.PaperCtrlLeave {
			t.Errorf("%s table 4 mismatch: %+v", proto, row)
		}
	}
}

func TestMeasureCPU(t *testing.T) {
	c, err := MeasureCPU("cliques", 5, 2, dh.Group512)
	if err != nil {
		t.Fatal(err)
	}
	if c.Join <= 0 || c.Leave <= 0 {
		t.Fatalf("non-positive timings: %+v", c)
	}
	if c.JoinExps == 0 || c.LeaveExps == 0 {
		t.Fatalf("no exponentiations recorded: %+v", c)
	}
	if c.JoinExpShare <= 0 || c.JoinExpShare > 1 {
		t.Fatalf("exp share out of range: %v", c.JoinExpShare)
	}
}

// TestMeasureCPURestoresBatchWorkers checks that the one-worker pin of the
// timed region does not leak into the caller's pool width.
func TestMeasureCPURestoresBatchWorkers(t *testing.T) {
	prev := dh.SetBatchWorkers(3)
	defer dh.SetBatchWorkers(prev)
	if _, err := MeasureCPU("cliques", 3, 1, dh.Group512); err != nil {
		t.Fatal(err)
	}
	if got := dh.SetBatchWorkers(3); got != 3 {
		t.Fatalf("batch workers after MeasureCPU = %d, want the prior 3", got)
	}
}

func TestModExpCost(t *testing.T) {
	d := ModExpCost(dh.Group512, 8)
	if d <= 0 || d > time.Second {
		t.Fatalf("implausible modexp cost %v", d)
	}
}

func TestMeasureStackSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack timing in -short mode")
	}
	st, err := MeasureStack("cliques", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Join <= 0 || st.Leave <= 0 {
		t.Fatalf("non-positive stack timings: %+v", st)
	}
}

func TestMeasureFlushOnlySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack timing in -short mode")
	}
	st, err := MeasureFlushOnly(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Join <= 0 || st.Leave <= 0 {
		t.Fatalf("non-positive flush timings: %+v", st)
	}
}
