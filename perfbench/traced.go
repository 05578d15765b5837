package main

import (
	"bytes"
	"fmt"
	"net/url"
	"path/filepath"
	"runtime"
	"time"

	"sparselr/internal/core"
	"sparselr/internal/gen"
	"sparselr/internal/serve"
	"sparselr/internal/sparse"
)

// serveProbeSeconds is the length of the small serve session a solver
// workload's traced run drives so that every traced run reports the
// serve layer.
const serveProbeSeconds = 2

// Every traced run emits every per-layer metric: pairs and layers a
// workload does not exercise itself are measured once beside it (see
// METRICS.md).

// traceSolveWorkload is the traced run of a solver workload. After one
// warm-up pass, untraced and traced passes alternate, so both halves
// see the same machine state and trace.overhead_frac compares like
// with like: pass i of either half draws the sketches of pass index i.
// The CPU profile covers only the traced passes; the other pairs, the
// probes and the serve session run after it has stopped.
func traceSolveWorkload(cfg config, rep *report, mats map[string]*sparse.CSR, cases []solveCase) error {
	tr := &tracer{}
	prof := &cpuProfile{}
	runPasses(mats, cases, cfg.seed, 0, 0, 1, nil)
	base, own := newPasses(cases), newPasses(cases)
	var gcFracs []float64
	begin := time.Now()
	for p := 0; p < 2 || time.Since(begin).Seconds() < cfg.seconds; p++ {
		base.merge(runPasses(mats, cases, cfg.seed, p, 0, 1, nil))
		if err := prof.start(); err != nil {
			return err
		}
		gc := sampleGC()
		own.merge(runPasses(mats, cases, cfg.seed, p, 0, 1, tr))
		gcFracs = append(gcFracs, gc.fracSince())
		prof.stop()
	}

	cross := runPasses(mats, otherCases(cases), cfg.seed, 0, 0, 1, tr)
	probes := probeSet{}
	for i, c := range cases {
		if ap := own.results[0][i]; ap != nil {
			kernelProbes(probes, mats[c.label], ap, cfg.seed)
		}
	}
	for _, l := range labelsOf(cases) {
		luProbes(probes, mats[l])
	}
	sess, err := openSession(cfg, tracedSolve(tr), "probe")
	if err != nil {
		return err
	}
	err = sess.run(newSequence(cfg.seed, len(sess.cat), 0), min(serveProbeSeconds, cfg.seconds))
	if err == nil {
		err = serveLayers(rep, sess, tr)
	}
	if cerr := sess.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	prev := runtime.GOMAXPROCS(1)
	serial := runPasses(mats, cases, cfg.seed, 0, 0, 1, nil)
	runtime.GOMAXPROCS(prev)

	for _, ps := range []*passes{base, own, cross, serial} {
		ps.check(mats, rep, false)
	}
	sess.verify(rep)
	codecLayers(rep, sess)

	solveLayers(rep, tr, own, cross)
	probes.report(rep)
	if err := cpuLayers(rep, prof); err != nil {
		return err
	}
	var ratios []float64
	for i := range own.wall {
		ratios = append(ratios, own.wall[i]/base.wall[i])
	}
	rep.set("runtime.gc_cycles", "count", median(own.gcs), len(own.gcs))
	rep.set("runtime.gc_cpu_frac", "ratio", median(gcFracs), len(gcFracs))
	rep.set("serial.time_to_tol_s", "s", serial.wall[0], 1)
	// The serial pass draws the sketches of pass index 0, as base pass 0.
	rep.set("parallel_speedup", "ratio", serial.wall[0]/base.wall[0], 1)
	rep.set("trace.overhead_frac", "ratio", median(ratios)-1, len(ratios))
	if err := writeSpans(cfg, rep, tr); err != nil {
		return err
	}
	rep.note("%s traced: %d untraced passes (%s s) alternating with %d traced ones (%s s); %d other pairs solved once beside them; serve layer from a %d s small-scale session",
		cfg.workload, len(base.wall), fmtList(base.wall), len(own.wall), fmtList(own.wall), len(cross.cases), serveProbeSeconds)
	return nil
}

// traceServeWorkload is the traced run of the serve workload: an
// untraced daemon serves the seeded sequence for half the run, then a
// fresh traced daemon serves the same requests, its timed phase under
// the CPU profile.
func traceServeWorkload(cfg config, rep *report) error {
	base, err := openSession(cfg, serve.DefaultSolve, "base")
	if err != nil {
		return err
	}
	seq := newSequence(cfg.seed, len(base.cat), 0)
	err = base.run(seq, cfg.seconds/2)
	if cerr := base.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	tr := &tracer{}
	prof := &cpuProfile{}
	sess, err := openSession(cfg, tracedSolve(tr), "traced")
	if err != nil {
		return err
	}
	if err = prof.start(); err == nil {
		err = sess.run(newSequence(cfg.seed, len(sess.cat), seq.issued), 3*cfg.seconds)
		prof.stop()
	}
	if err == nil {
		err = serveLayers(rep, sess, tr)
	}
	if cerr := sess.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	small := tableI(gen.Small, cfg.seed)
	cross := runPasses(small, allCases, cfg.seed, 0, 0, 1, tr)
	probes := probeSet{}
	for i, c := range allCases {
		if ap := cross.results[0][i]; ap != nil {
			kernelProbes(probes, small[c.label], ap, cfg.seed)
		}
	}
	for _, l := range gen.Labels() {
		luProbes(probes, small[l])
	}

	base.verify(rep)
	sess.verify(rep)
	cross.check(small, rep, false)
	codecLayers(rep, sess)

	par := catalogPass(sess)
	prev := runtime.GOMAXPROCS(1)
	ser := catalogPass(sess)
	runtime.GOMAXPROCS(prev)

	solveLayers(rep, tr, cross)
	probes.report(rep)
	if err := cpuLayers(rep, prof); err != nil {
		return err
	}
	rep.set("runtime.gc_cycles", "count", sess.ph.gcCycles, max(len(sess.ph.blocks), 1))
	rep.set("runtime.gc_cpu_frac", "ratio", sess.ph.gcFrac, 1)
	rep.set("serial.time_to_tol_s", "s", ser, len(sess.cat))
	rep.set("parallel_speedup", "ratio", ser/par, len(sess.cat))
	rep.set("trace.overhead_frac", "ratio", sess.ph.wall/base.ph.wall-1, seq.issued)
	if err := writeSpans(cfg, rep, tr); err != nil {
		return err
	}
	rep.note("serve traced: %d submits untraced in %.2f s, the same %d traced in %.2f s; core.solve_s and the kernel probes are at small scale",
		seq.issued, base.ph.wall, seq.issued, sess.ph.wall)
	return nil
}

// writeSpans stores the run's spans under the scratch directory.
func writeSpans(cfg config, rep *report, tr *tracer) error {
	path := filepath.Join(cfg.scratch, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	rep.note("spans in %s", path)
	return nil
}

// otherCases returns the pairs of allCases not in cases.
func otherCases(cases []solveCase) []solveCase {
	in := map[solveCase]bool{}
	for _, c := range cases {
		in[c] = true
	}
	var out []solveCase
	for _, c := range allCases {
		if !in[c] {
			out = append(out, c)
		}
	}
	return out
}

// labelsOf returns the distinct matrices of cases in first-use order.
func labelsOf(cases []solveCase) []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range cases {
		if !seen[c.label] {
			seen[c.label] = true
			out = append(out, c.label)
		}
	}
	return out
}

// solveLayers reports core.solve_s per pair, the median of the pair's
// core.Approximate spans, and lucrtp.max_fill per LU pair.
func solveLayers(rep *report, tr *tracer, sets ...*passes) {
	spans := tr.durations()
	for _, ps := range sets {
		if ps == nil {
			continue
		}
		for i, c := range ps.cases {
			d := spans["core.solve."+c.name()]
			rep.set("core.solve_s."+c.name(), "s", median(d), len(d))
			if ap := ps.results[0][i]; ap != nil && ap.LU != nil {
				rep.set("lucrtp.max_fill."+c.name(), "ratio", ap.LU.MaxFill(), 1)
			}
		}
	}
}

// cpuLayers attributes the CPU profile to packages.
func cpuLayers(rep *report, prof *cpuProfile) error {
	byBucket := map[string]float64{}
	for _, chunk := range prof.chunks {
		part, err := attributeCPU(chunk.Bytes())
		if err != nil {
			return err
		}
		for b, v := range part {
			byBucket[b] += v
		}
	}
	for _, b := range cpuBucketNames {
		rep.set("cpu."+b+"_s", "s", byBucket[b], len(prof.chunks))
	}
	return nil
}

// serveLayers reports the serve layer of a traced session: latencies by
// kind from its timed phase, the queue/solve/overhead split of cold
// submits, cache-tier shares from /metrics, and a sequential probe that
// separates memory hits from disk hits. The daemon must still be up.
func serveLayers(rep *report, s *session, tr *tracer) error {
	var gets, queue, solve, over []float64
	for _, r := range s.ph.replies {
		switch {
		case r.get:
			gets = append(gets, r.latency)
		case r.outcome == string(serve.Enqueued):
			queue = append(queue, r.queueMS)
			solve = append(solve, r.solveMS)
			over = append(over, 1000*r.latency-r.queueMS-r.solveMS)
		}
	}
	rep.set("serve.factor_get_ms_p50", "ms", 1000*median(gets), len(gets))
	rep.set("serve.queue_ms_p50", "ms", median(queue), len(queue))
	rep.set("serve.queue_ms_p99", "ms", percentile(queue, 99), len(queue))
	rep.set("serve.solve_ms_p50", "ms", median(solve), len(solve))
	rep.set("serve.overhead_ms_p50", "ms", median(over), len(over))
	parse := tr.durations()["serve.parse"]
	rep.set("serve.parse_ms_p50", "ms", 1000*median(parse), len(parse))

	d := func(name string) float64 { return s.ph.after[name] - s.ph.before[name] }
	total := d(promHits) + d(promDiskHits) + d(promMisses) + d(promJoined)
	if total <= 0 {
		return fmt.Errorf("serve: /metrics counted no admissions in the timed phase")
	}
	rep.set("serve.mem_hit_frac", "ratio", d(promHits)/total, int(total))
	rep.set("serve.disk_hit_frac", "ratio", d(promDiskHits)/total, int(total))
	rep.set("serve.miss_frac", "ratio", d(promMisses)/total, int(total))
	rep.set("serve.evictions", "count", d(promEvictions), 1)

	// Each catalog entry twice in a row: the first submit is a memory or
	// disk hit depending on the LRU, the second a memory hit.
	var mem, disk []float64
	for round := 0; round < 2; round++ {
		for i := range s.cat {
			for j := 0; j < 2; j++ {
				before, err := s.c.promCounters(promHits, promDiskHits)
				if err != nil {
					return err
				}
				r := s.c.submit(s.cat, request{entry: i, seed: s.seed})
				after, err := s.c.promCounters(promHits, promDiskHits)
				if err != nil {
					return err
				}
				s.extra = append(s.extra, r)
				switch {
				case after[promDiskHits] > before[promDiskHits]:
					disk = append(disk, r.latency)
				case after[promHits] > before[promHits]:
					mem = append(mem, r.latency)
				}
			}
		}
	}
	rep.set("serve.hit_ms_p50", "ms", 1000*median(mem), len(mem))
	rep.set("serve.disk_hit_ms_p50", "ms", 1000*median(disk), len(disk))

	var keys []float64
	for _, e := range s.cat {
		q, err := url.ParseQuery(e.query(s.seed))
		if err != nil {
			return err
		}
		keys = append(keys, timeCall(func() {
			spec, err := serve.ParseSubmitBody("text/plain", e.body, q)
			if err == nil && spec.Validate() == nil {
				spec.Key()
			}
		}))
	}
	rep.set("serve.key_us", "us", 1e6*median(keys), len(keys))
	return nil
}

// codecLayers times the LRKC frame codec on the catalog's direct
// results (after verify).
func codecLayers(rep *report, s *session) {
	var enc, dec, kb []float64
	for i, e := range s.cat {
		spec, err := e.spec(s.seed)
		if err != nil {
			continue
		}
		ap := s.v.direct[spec.Key()]
		if ap == nil {
			continue
		}
		var buf bytes.Buffer
		enc = append(enc, timeCall(func() {
			buf.Reset()
			if err := serve.EncodeApproximation(&buf, ap); err != nil {
				logf("encode catalog entry %d: %v", i, err)
			}
		}))
		frame := append([]byte(nil), buf.Bytes()...)
		kb = append(kb, float64(len(frame))/1e3)
		dec = append(dec, timeCall(func() {
			if _, err := serve.DecodeApproximation(bytes.NewReader(frame)); err != nil {
				logf("decode catalog entry %d: %v", i, err)
			}
		}))
	}
	rep.set("serve.encode_ms", "ms", 1000*median(enc), len(enc))
	rep.set("serve.decode_ms", "ms", 1000*median(dec), len(dec))
	rep.set("serve.frame_kb", "KB", median(kb), len(kb))
}

// catalogPass solves every catalog spec once, one after another, and
// returns the wall time.
func catalogPass(s *session) float64 {
	t0 := time.Now()
	for _, e := range s.cat {
		if spec, err := e.spec(s.seed); err == nil {
			core.Approximate(e.a, spec.CoreOptions())
		}
	}
	return time.Since(t0).Seconds()
}
