package main

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/model"
)

// runSelfcheck shows that verification reports a corrupted expected
// value as a failure rather than a pass. For each workload (on small
// worlds) it runs one clean rep, which must pass, then repeats the rep
// with one expected value corrupted, which must fail. It returns the
// process exit code.
func runSelfcheck() int {
	bad := 0
	expect := func(name string, wantFail bool, r *run) {
		failed := r.failed > 0
		status := "ok"
		if failed != wantFail {
			status = "WRONG"
			bad++
		}
		fmt.Printf("selfcheck %-44s failed=%-5v want failed=%-5v %s\n", name, failed, wantFail, status)
	}

	// paper-figures: Fig 10 against its golden CSV, then against a copy
	// of the golden with one byte changed.
	goldens, err := loadGoldens("results")
	if err != nil {
		fmt.Println("selfcheck:", err)
		return 1
	}
	figs := []*bench.Figure{bench.RunFig10(model.Default())}
	r := newRun("paper-figures", 1, 0)
	checkFigures(r, 1, figs, goldens)
	expect("paper-figures clean", false, r)
	name := bench.CSVFileName(figs[0].ID)
	corrupt := map[string]string{}
	for k, v := range goldens {
		corrupt[k] = v
	}
	b := []byte(corrupt[name])
	b[len(b)-2] ^= 1
	corrupt[name] = string(b)
	r = newRun("paper-figures", 1, 0)
	checkFigures(r, 1, figs, corrupt)
	expect("paper-figures golden CSV byte", true, r)

	// World workloads: each corruption is applied between the rep's run
	// and its verification, and undone afterwards.
	rs := newRingScale(8, 1)
	pgm := newPutGetMix(8, 1)
	cases := []struct {
		name    string
		wl      worldLoad
		tamper  func(h *worldHarness)
		restore func(h *worldHarness)
	}{
		{"ring-scale clean", rs, nil, nil},
		{"ring-scale simulated end time", rs,
			func(h *worldHarness) { h.expEnd++ }, func(h *worldHarness) { h.expEnd-- }},
		{"ring-scale summed barrier count", rs,
			func(h *worldHarness) { h.expSt.Barriers++ }, func(h *worldHarness) { h.expSt.Barriers-- }},
		{"ring-scale expected payload byte", rs,
			func(*worldHarness) { rs.payload[0][7] ^= 1 }, nil},
		{"put-get-mix clean", pgm, nil, nil},
		{"put-get-mix simulated end time", pgm,
			func(h *worldHarness) { h.expEnd-- }, func(h *worldHarness) { h.expEnd++ }},
		{"put-get-mix expected get source byte", pgm,
			func(*worldHarness) {
				for _, op := range pgm.plan[0] {
					if op.kind == opGet {
						pgm.src[op.target][op.off] ^= 1
						return
					}
				}
			}, nil},
		{"put-get-mix fetch-add value", pgm,
			func(*worldHarness) { pgm.fetched[3][0] += 1 }, nil},
	}
	harness := map[worldLoad]*worldHarness{}
	for _, c := range cases {
		h := harness[c.wl]
		if h == nil {
			h = &worldHarness{r: newRun("selfcheck", 1, 0), wl: c.wl, mem: newMemSampler()}
			h.build()
			harness[c.wl] = h
		}
		h.r = newRun(c.name, 1, 0)
		if c.tamper != nil {
			h.tamper = func() { c.tamper(h) }
		}
		h.runRep(1, -1)
		h.tamper = nil
		if c.restore != nil {
			c.restore(h)
		}
		expect(c.name, c.tamper != nil, h.r)
	}
	for _, h := range harness {
		h.job.Cluster.ShutdownSim()
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d case(s) misreported\n", bad)
		return 1
	}
	fmt.Println("selfcheck: every corrupted expectation was reported as a failure")
	return 0
}
