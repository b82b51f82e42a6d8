// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation (Section 6). Each benchmark corresponds to one table
// or figure; cmd/sgcbench prints the same data as formatted tables.
//
// Custom metrics:
//   - exps/op            measured exponentiations (Tables 2-4)
//   - paper-exps/op      the paper's closed-form count for comparison
//   - join-ms, leave-ms  wall / CPU time of one operation (Figures 3-4)
//
// Every benchmark loops on b.N, not b.Loop: under Go 1.24 a multi-value
// -cpu list (-cpu 1,2) runs the first value's b.Loop iterations before
// that GOMAXPROCS is applied, so its line would report the wrong width.
package repro

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"slices"
	"testing"

	"repro/internal/bench"
	_ "repro/internal/ckd"
	_ "repro/internal/cliques"
	"repro/internal/crypt"
	"repro/internal/dh"
	"repro/internal/kga"
	"repro/internal/kga/kgatest"
)

var protocols = []string{"cliques", "ckd"}

// BenchmarkTable2JoinExpCounts regenerates Table 2: the per-role
// exponentiation counts of a JOIN for Cliques (controller n+1, new member
// 2n-1) and CKD (controller n+2, new member 4).
func BenchmarkTable2JoinExpCounts(b *testing.B) {
	for _, proto := range protocols {
		for _, n := range []int{4, 8, 16, 32} {
			proto, n := proto, n
			b.Run(fmt.Sprintf("%s/n%d", proto, n), func(b *testing.B) {
				var ctrl, joiner int
				for i := 0; i < b.N; i++ {
					c, err := bench.JoinCounts(proto, n)
					if err != nil {
						b.Fatal(err)
					}
					ctrl = c.Roles[0].Total
					joiner = c.Roles[1].Total
					if c.SerialTotal != c.PaperSerial {
						b.Fatalf("serial %d != paper %d", c.SerialTotal, c.PaperSerial)
					}
				}
				b.ReportMetric(float64(ctrl), "ctrl-exps")
				b.ReportMetric(float64(joiner), "newmember-exps")
			})
		}
	}
}

// BenchmarkTable3LeaveExpCounts regenerates Table 3: the controller's
// exponentiation counts for a LEAVE (Cliques n; CKD n-1, or 3n-5 when the
// controller itself leaves).
func BenchmarkTable3LeaveExpCounts(b *testing.B) {
	for _, proto := range protocols {
		for _, ctrlLeaves := range []bool{false, true} {
			for _, n := range []int{4, 8, 16, 32} {
				proto, ctrlLeaves, n := proto, ctrlLeaves, n
				name := fmt.Sprintf("%s/n%d", proto, n)
				if ctrlLeaves {
					name = fmt.Sprintf("%s/ctrl-leaves/n%d", proto, n)
				}
				b.Run(name, func(b *testing.B) {
					var exps, paper int
					for i := 0; i < b.N; i++ {
						c, err := bench.LeaveCounts(proto, n, ctrlLeaves)
						if err != nil {
							b.Fatal(err)
						}
						exps, paper = c.SerialTotal, c.PaperSerial
						if exps != paper {
							b.Fatalf("serial %d != paper %d", exps, paper)
						}
					}
					b.ReportMetric(float64(exps), "exps")
					b.ReportMetric(float64(paper), "paper-exps")
				})
			}
		}
	}
}

// BenchmarkTable4SerialExp regenerates Table 4: total serial
// exponentiations per operation (Cliques join 3n, leave n, controller
// leave n; CKD join n+6, leave n-1, controller leave 3n-5).
func BenchmarkTable4SerialExp(b *testing.B) {
	for _, proto := range protocols {
		for _, n := range []int{4, 8, 16, 32} {
			proto, n := proto, n
			b.Run(fmt.Sprintf("%s/n%d", proto, n), func(b *testing.B) {
				var row bench.Table4Row
				for i := 0; i < b.N; i++ {
					var err error
					row, err = bench.Table4(proto, n)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(row.Join), "join-exps")
				b.ReportMetric(float64(row.Leave), "leave-exps")
				b.ReportMetric(float64(row.CtrlLeave), "ctrlleave-exps")
			})
		}
	}
}

// BenchmarkFigure3TotalTime regenerates Figure 3: the total wall-clock
// time of one join/leave operation versus group size, on the paper's
// topology (three daemons, two singleton members, the rest co-located),
// including all network and flush-layer overhead. The flush-only series
// isolates the group communication cost.
func BenchmarkFigure3TotalTime(b *testing.B) {
	sizes := []int{3, 5, 10, 15}
	for _, proto := range protocols {
		for _, n := range sizes {
			proto, n := proto, n
			b.Run(fmt.Sprintf("%s/n%d", proto, n), func(b *testing.B) {
				st, err := bench.MeasureStack(proto, n, b.N)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(st.Join.Milliseconds()), "join-ms")
				b.ReportMetric(float64(st.Leave.Milliseconds()), "leave-ms")
			})
		}
	}
	for _, n := range sizes {
		n := n
		b.Run(fmt.Sprintf("flush-only/n%d", n), func(b *testing.B) {
			st, err := bench.MeasureFlushOnly(n, b.N)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(st.Join.Microseconds())/1000, "join-ms")
			b.ReportMetric(float64(st.Leave.Microseconds())/1000, "leave-ms")
		})
	}
}

// BenchmarkFigure4CPUTime regenerates Figure 4: the computation (CPU) time
// of one join and one leave versus group size, for both protocols, along
// with the fraction of it spent in modular exponentiation (the paper
// reports 88% for a 15-member join).
func BenchmarkFigure4CPUTime(b *testing.B) {
	for _, proto := range protocols {
		for _, n := range []int{5, 10, 15, 20, 25, 30} {
			proto, n := proto, n
			b.Run(fmt.Sprintf("%s/n%d", proto, n), func(b *testing.B) {
				c, err := bench.MeasureCPU(proto, n, b.N, dh.Group512)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(c.Join.Microseconds())/1000, "join-ms")
				b.ReportMetric(float64(c.Leave.Microseconds())/1000, "leave-ms")
				b.ReportMetric(c.JoinExpShare*100, "modexp-%")
			})
		}
	}
}

// BenchmarkAblationModulusSize measures the modulus-size sensitivity of
// the paper's dominant cost (one modular exponentiation).
func BenchmarkAblationModulusSize(b *testing.B) {
	for _, bits := range []int{512, 768, 1024} {
		bits := bits
		g, err := dh.GroupForBits(bits)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("bits%d", bits), func(b *testing.B) {
			base := g.PowG(g.MustShare(), nil, "")
			exp := g.MustShare()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Exp(base, exp, nil, "")
			}
		})
	}
}

// BenchmarkExpExponentLength compares one generic exponentiation by a
// full-length exponent in [2, q-1] (the paper's share range, and still the
// range of a controller's share·f mod q) against one by a 256-bit share from
// NewShare, at each modulus size.
func BenchmarkExpExponentLength(b *testing.B) {
	for _, bits := range []int{512, 1024, 2048} {
		g, err := dh.GroupForBits(bits)
		if err != nil {
			b.Fatal(err)
		}
		full, err := rand.Int(rand.Reader, new(big.Int).Sub(g.Q, big.NewInt(2)))
		if err != nil {
			b.Fatal(err)
		}
		full.Add(full, big.NewInt(2))
		base := g.PowG(g.MustShare(), nil, "")
		for _, c := range []struct {
			name string
			exp  *big.Int
		}{{"full", full}, {"short", g.MustShare()}} {
			b.Run(fmt.Sprintf("%s/bits%d", c.name, bits), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					g.Exp(base, c.exp, nil, "")
				}
			})
		}
	}
}

// BenchmarkPowGFixedBase compares the generic square-and-multiply
// exponentiation of the group generator against the precomputed fixed-base
// comb table PowG now uses on the key-agreement hot path.
func BenchmarkPowGFixedBase(b *testing.B) {
	for _, bits := range []int{512, 1024} {
		g, err := dh.GroupForBits(bits)
		if err != nil {
			b.Fatal(err)
		}
		g.Precompute()
		exp := g.MustShare()
		b.Run(fmt.Sprintf("generic/bits%d", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.Exp(g.G, exp, nil, "")
			}
		})
		b.Run(fmt.Sprintf("fixedbase/bits%d", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.PowG(exp, nil, "")
			}
		})
	}
}

// BenchmarkCheckElement compares group-element validation through
// CheckElement, which decides residuosity with the package's word-level
// Jacobi kernel, against the same range checks around math/big's
// big.Jacobi. Every key-agreement module validates each received value this
// way, n² times per Cliques join. Allocation counts are reported.
func BenchmarkCheckElement(b *testing.B) {
	one := big.NewInt(1)
	for _, bits := range []int{512, 1024, 2048} {
		g, err := dh.GroupForBits(bits)
		if err != nil {
			b.Fatal(err)
		}
		elems := make([]*big.Int, 64)
		for i := range elems {
			elems[i] = g.PowG(g.MustShare(), nil, "")
		}
		checks := []struct {
			name  string
			check func(v *big.Int) bool
		}{
			{"kernel", func(v *big.Int) bool { return g.CheckElement(v) == nil }},
			{"big", func(v *big.Int) bool {
				return v.Cmp(one) > 0 && v.Cmp(g.P) < 0 && big.Jacobi(v, g.P) == 1
			}},
		}
		for _, c := range checks {
			b.Run(fmt.Sprintf("%d/%s", bits, c.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if !c.check(elems[i%len(elems)]) {
						b.Fatal("subgroup element rejected")
					}
				}
			})
		}
	}
}

// BenchmarkExpBatchParallel measures a 16-job batch of independent
// exponentiations — the shape of a Cliques final broadcast or a CKD key
// distribution for a 16-member group — at pool widths 1 through 8.
func BenchmarkExpBatchParallel(b *testing.B) {
	g, err := dh.GroupForBits(1024)
	if err != nil {
		b.Fatal(err)
	}
	exp := g.MustShare()
	jobs := make([]dh.Job, 16)
	for i := range jobs {
		jobs[i] = dh.Job{Base: g.PowG(g.MustShare(), nil, ""), Exp: exp}
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			prev := dh.SetBatchWorkers(w)
			defer dh.SetBatchWorkers(prev)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.ExpJobs(jobs, nil)
			}
		})
	}
}

// BenchmarkCliquesRekey1024 times the Cliques engine alone on the
// benchmark's rekey_churn shape: an 8th member joins a 7-member group and
// leaves again, at 1024 bits over the in-memory kgatest harness (no
// daemons, no flush). One op is one join plus one leave; exps/op is the
// exponentiations counted across all members (Tables 2-3: 36 + 14). Run
// with -cpu 1,2 to see what the per-step batches buy.
func BenchmarkCliquesRekey1024(b *testing.B) {
	g, err := dh.GroupForBits(1024)
	if err != nil {
		b.Fatal(err)
	}
	net := kgatest.NewNet(b, "cliques", g)
	base := []string{"m0", "m1", "m2", "m3", "m4", "m5", "m6"}
	net.Grow(base)
	all := append(slices.Clone(base), "m7")
	net.Add("m7")
	net.ResetCounters()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.MustRun(kga.Event{Type: kga.EvJoin, Members: all, Joined: all[7:]}, all)
		net.MustRun(kga.Event{Type: kga.EvLeave, Members: base, Left: all[7:]}, base)
	}
	exps := 0
	for _, c := range net.Counters {
		exps += c.Total()
	}
	b.ReportMetric(float64(exps)/float64(b.N), "exps/op")
}

// BenchmarkSealOpen measures one Seal+Open round trip per cipher suite at
// 1 KiB and at 8 KiB (the benchmark's bulk_8k message). Blowfish-CBC is the
// paper's bulk cipher; allocation counts are reported (b.ReportAllocs).
func BenchmarkSealOpen(b *testing.B) {
	secret := []byte("benchmark-group-secret-material!")
	for _, suite := range []string{crypt.SuiteBlowfish, crypt.SuiteAESCTR} {
		s, err := crypt.NewSuite(suite, secret, []byte("bench"))
		if err != nil {
			b.Fatal(err)
		}
		for _, size := range []int{1024, 8192} {
			msg := make([]byte, size)
			b.Run(fmt.Sprintf("%s/%dB", suite, size), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(size))
				for i := 0; i < b.N; i++ {
					frame, err := s.Seal(msg)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := s.Open(frame); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
