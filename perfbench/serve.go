package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sparselr/internal/core"
	"sparselr/internal/dist"
	"sparselr/internal/gen"
	"sparselr/internal/serve"
	"sparselr/internal/sparse"
)

// The serve workload's shape: 2 closed-loop clients against 2 workers,
// a memory tier smaller than the catalog's factor footprint, and a disk
// tier below it.
const (
	serveClients   = 2
	serveWorkers   = 2
	serveMemBytes  = 4 << 20
	serveDiskBytes = 1 << 30
	freshEvery     = 10   // every 10th submit carries a never-seen key
	downloadFrac   = 0.25 // hits followed by a factor download
	zipfS          = 1.1
)

// catalogMethods and catalogTols span the served catalog with the
// Table I small analogs.
var (
	catalogMethods = []string{"RandQB_EI", "ILUT_CRTP", "CUR", "ACA"}
	catalogTols    = []float64{1e-2, 5e-2}
)

// entry is one catalog item: a MatrixMarket upload and its solver knobs.
type entry struct {
	method string
	tol    float64
	body   []byte
	a      *sparse.CSR // the body as the server parses it
}

func (e entry) query(seed int64) string {
	v := url.Values{}
	v.Set("method", e.method)
	v.Set("tol", strconv.FormatFloat(e.tol, 'g', -1, 64))
	v.Set("k", strconv.Itoa(blockSize))
	v.Set("power", "1")
	v.Set("seed", strconv.FormatInt(seed, 10))
	v.Set("wait", "60s")
	return v.Encode()
}

// spec is the request a client sends for the entry under seed, as the
// server will see it.
func (e entry) spec(seed int64) (*serve.Spec, error) {
	q, err := url.ParseQuery(e.query(seed))
	if err != nil {
		return nil, err
	}
	s, err := serve.ParseSubmitBody("text/plain", e.body, q)
	if err != nil {
		return nil, err
	}
	return s, s.Validate()
}

// buildCatalog encodes every (analog, method, τ) combination.
func buildCatalog(mats map[string]*sparse.CSR) ([]entry, error) {
	var out []entry
	for _, label := range gen.Labels() {
		var buf bytes.Buffer
		if err := mats[label].WriteMatrixMarket(&buf); err != nil {
			return nil, err
		}
		a, err := sparse.ReadMatrixMarket(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return nil, err
		}
		for _, m := range catalogMethods {
			for _, t := range catalogTols {
				out = append(out, entry{method: m, tol: t, body: buf.Bytes(), a: a})
			}
		}
	}
	return out, nil
}

// request is one step of the seeded request sequence.
type request struct {
	entry    int
	seed     int64
	fresh    bool
	download bool
	pick     int // which of the reply's factors to download
}

// sequence yields the workload's requests in a fixed order derived from
// the seed; clients take the next one when their previous reply is in.
type sequence struct {
	mu     sync.Mutex
	rng    *rand.Rand
	zipf   *rand.Zipf
	rankOf []int
	base   int64
	issued int
	limit  int // 0 = unbounded
}

// newSequence draws requests from seed. The popularity order of the
// catalog is the same for every seed, so every seed serves the same mix
// of methods and sizes; the seed picks the individual requests. Fresh
// keys are stratified rather than drawn: every freshEvery-th submit is
// fresh, and fresh submits cycle through the catalog, so each block of
// freshEvery × entries submits forces one solve of every entry. The
// cost of a block then does not hinge on which few entries a seed
// happens to solve cold.
func newSequence(seed int64, entries, limit int) *sequence {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	return &sequence{
		rng:    rng,
		zipf:   rand.NewZipf(rng, zipfS, 1, uint64(entries-1)),
		rankOf: rand.New(rand.NewSource(1)).Perm(entries),
		base:   seed,
		limit:  limit,
	}
}

func (s *sequence) next() (request, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.limit > 0 && s.issued >= s.limit {
		return request{}, false
	}
	s.issued++
	r := request{entry: s.rankOf[s.zipf.Uint64()], seed: s.base}
	if s.issued%freshEvery == 0 {
		r.fresh = true
		r.entry = s.rankOf[(s.issued/freshEvery)%len(s.rankOf)]
		r.seed = s.base*1_000_003 + int64(s.issued)
	}
	r.download = !r.fresh && s.rng.Float64() < downloadFrac
	r.pick = s.rng.Intn(3)
	return r, true
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	req     request
	get     bool // factor download rather than a submit
	latency float64
	done    time.Time
	code    int
	err     string

	// Submit fields.
	status    string
	outcome   string
	key       string
	id        string
	queueMS   float64
	solveMS   float64
	converged bool
	rank      int
	nnz       int
	factors   []string

	// Download fields.
	factor string
	same   bool // body equals the first download of this (key, factor)
}

// submitView is the part of the POST /v1/jobs reply the client reads.
type submitView struct {
	ID      string  `json:"id"`
	Key     string  `json:"key"`
	Status  string  `json:"status"`
	Outcome string  `json:"outcome"`
	QueueMS float64 `json:"queue_ms"`
	SolveMS float64 `json:"solve_ms"`
	Result  *struct {
		Converged bool     `json:"converged"`
		Rank      int      `json:"rank"`
		NNZ       int      `json:"factor_nnz"`
		Factors   []string `json:"factors"`
	} `json:"result"`
}

// daemon is an in-process serve.Server behind a loopback listener.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	dir    string
	served chan error
}

func bootDaemon(dir string, solve serve.SolveFunc) (*daemon, error) {
	disk, err := serve.OpenDiskCache(dir, serveDiskBytes, nil)
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(serve.Config{
		Workers: serveWorkers, CacheBytes: serveMemBytes, Disk: disk, Solve: solve,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv}, url: "http://" + ln.Addr().String(), dir: dir, served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// close stops the listener, drains the scheduler, waits for the serve
// goroutine and removes the disk tier.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := d.srv.Drain(ctx); derr != nil && err == nil {
		err = derr
	}
	if rerr := os.RemoveAll(d.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// client drives one daemon with up to serveClients connections.
type client struct {
	d      *daemon
	hc     *http.Client
	inject bool

	mu     sync.Mutex
	bodies map[string][]byte // first download per key/factor
}

func newClient(d *daemon, inject bool) *client {
	tr := &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients, DisableCompression: true}
	return &client{d: d, hc: &http.Client{Transport: tr}, inject: inject, bodies: map[string][]byte{}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// submit POSTs the request's upload and waits for the job.
func (c *client) submit(cat []entry, r request) reply {
	e := cat[r.entry]
	ctype := "text/plain"
	if c.inject && r.fresh {
		// A malformed submit: the JSON decoder rejects the body with 400.
		ctype = "application/json"
	}
	t0 := time.Now()
	resp, err := c.hc.Post(c.d.url+"/v1/jobs?"+e.query(r.seed), ctype, bytes.NewReader(e.body))
	rp := reply{req: r}
	if err != nil {
		rp.err = err.Error()
		rp.latency, rp.done = time.Since(t0).Seconds(), time.Now()
		return rp
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rp.latency, rp.done, rp.code = time.Since(t0).Seconds(), time.Now(), resp.StatusCode
	if err != nil {
		rp.err = err.Error()
		return rp
	}
	var v submitView
	if err := json.Unmarshal(body, &v); err != nil {
		rp.err = fmt.Sprintf("reply: %v", err)
		return rp
	}
	rp.status, rp.outcome, rp.key, rp.id = v.Status, v.Outcome, v.Key, v.ID
	rp.queueMS, rp.solveMS = v.QueueMS, v.SolveMS
	if v.Result != nil {
		rp.converged, rp.rank, rp.nnz, rp.factors = v.Result.Converged, v.Result.Rank, v.Result.NNZ, v.Result.Factors
	}
	return rp
}

// download GETs one factor of a finished job as MatrixMarket.
func (c *client) download(sub reply) reply {
	name := sub.factors[sub.req.pick%len(sub.factors)]
	t0 := time.Now()
	resp, err := c.hc.Get(c.d.url + "/v1/jobs/" + sub.id + "/factors/" + name + "?format=mm")
	rp := reply{req: sub.req, get: true, factor: name, key: sub.key}
	if err != nil {
		rp.err = err.Error()
		rp.latency, rp.done = time.Since(t0).Seconds(), time.Now()
		return rp
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rp.latency, rp.done, rp.code = time.Since(t0).Seconds(), time.Now(), resp.StatusCode
	if err != nil {
		rp.err = err.Error()
		return rp
	}
	k := sub.key + "/" + name
	c.mu.Lock()
	if first, ok := c.bodies[k]; ok {
		rp.same = bytes.Equal(first, body)
	} else {
		c.bodies[k] = body
		rp.same = true
	}
	c.mu.Unlock()
	return rp
}

// drive runs serveClients closed-loop clients over seq until it is
// exhausted or the deadline passes, and returns every reply in
// completion order.
func (c *client) drive(cat []entry, seq *sequence, deadline time.Time) []reply {
	var mu sync.Mutex
	var out []reply
	var wg sync.WaitGroup
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r, ok := seq.next()
				if !ok {
					return
				}
				rps := []reply{c.submit(cat, r)}
				if sub := rps[0]; r.download && sub.code == http.StatusOK && sub.outcome == string(serve.CacheHit) && len(sub.factors) > 0 {
					rps = append(rps, c.download(sub))
				}
				mu.Lock()
				out = append(out, rps...)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// warm submits every catalog entry once so the timed phase starts from
// a filled cache: hot keys in memory, the rest on disk.
func (c *client) warm(cat []entry, seed int64) []reply {
	out := make([]reply, len(cat))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(cat); i = int(next.Add(1) - 1) {
				out[i] = c.submit(cat, request{entry: i, seed: seed})
			}
		}()
	}
	wg.Wait()
	return out
}

// promCounters scrapes the named counters from /metrics.
func (c *client) promCounters(names ...string) (map[string]float64, error) {
	resp, err := c.hc.Get(c.d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !want[name] {
			continue
		}
		if out[name], err = strconv.ParseFloat(val, 64); err != nil {
			return nil, fmt.Errorf("metrics %s: %w", name, err)
		}
	}
	return out, sc.Err()
}

// The /metrics counters the workload reads.
const (
	promHits      = "lowrankd_cache_hits_total"
	promDiskHits  = "lowrankd_disk_cache_hits_total"
	promMisses    = "lowrankd_cache_misses_total"
	promJoined    = "lowrankd_singleflight_hits_total"
	promEvictions = "lowrankd_cache_evictions_total"
)

var promAll = []string{promHits, promDiskHits, promMisses, promJoined, promEvictions}

// servePhase is one timed closed-loop phase against one daemon. A
// block is freshEvery × catalog-size consecutive submits, the unit whose
// work repeats (see newSequence).
type servePhase struct {
	replies  []reply
	wall     float64
	blocks   []float64 // wall time of each complete block
	allocMB  float64   // per block
	before   map[string]float64
	after    map[string]float64
	gcCycles float64
	gcFrac   float64
	steal    float64 // share of the machine's CPU time the host took
}

func (c *client) phase(cat []entry, seq *sequence, budget float64) (*servePhase, error) {
	before, err := c.promCounters(promAll...)
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc := sampleGC()
	st := readSteal()
	t0 := time.Now()
	rs := c.drive(cat, seq, t0.Add(time.Duration(budget*float64(time.Second))))
	wall := time.Since(t0).Seconds()
	steal := st.shareSince()
	frac := gc.fracSince()
	runtime.ReadMemStats(&m1)
	after, err := c.promCounters(promAll...)
	if err != nil {
		return nil, err
	}
	block := freshEvery * len(cat)
	var blocks []float64
	submits, prev := 0, t0
	for _, r := range rs {
		if r.get {
			continue
		}
		if submits++; submits%block == 0 {
			blocks = append(blocks, r.done.Sub(prev).Seconds())
			prev = r.done
		}
	}
	per := max(float64(submits)/float64(block), 1)
	return &servePhase{
		replies: rs, wall: wall, blocks: blocks, before: before, after: after,
		allocMB:  float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / per,
		gcCycles: float64(m1.NumGC-m0.NumGC) / per,
		gcFrac:   frac,
		steal:    steal,
	}, nil
}

// verifier checks served results against direct library solves.
type verifier struct {
	cat    []entry
	direct map[string]*core.Approximation // by spec key
	errs   map[string]error
	acc    map[string]string // by spec key: "" or why the direct solve misses τ
	inject bool              // halve a factor of every direct ACA result before its accuracy check
}

// solveDirect runs core.Approximate on every distinct (entry, seed) the
// replies name, with serveWorkers goroutines, and checks each result:
// no error, converged, and an exact error ‖A − Ã‖_F within τ‖A‖_F. It
// returns the new keys in order.
func (v *verifier) solveDirect(reqs []request) []string {
	type job struct {
		key string
		e   entry
		s   *serve.Spec
	}
	var jobs []job
	for _, r := range reqs {
		e := v.cat[r.entry]
		s, err := e.spec(r.seed)
		if err != nil {
			continue
		}
		k := s.Key()
		if _, ok := v.direct[k]; ok {
			continue
		}
		v.direct[k] = nil
		jobs = append(jobs, job{k, e, s})
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := 0
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = j.key
	}
	for w := 0; w < serveWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(jobs) {
					mu.Unlock()
					return
				}
				j := jobs[next]
				next++
				mu.Unlock()
				ap, err := core.Approximate(j.e.a, j.s.CoreOptions())
				acc := v.accuracy(j.e, ap, err)
				mu.Lock()
				v.direct[j.key], v.errs[j.key], v.acc[j.key] = ap, err, acc
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return keys
}

// accuracy returns "" when a direct solve of e met its tolerance, or
// why it did not.
func (v *verifier) accuracy(e entry, ap *core.Approximation, err error) string {
	name := fmt.Sprintf("%s τ=%g", e.method, e.tol)
	if err != nil {
		return fmt.Sprintf("direct %s: %v", name, err)
	}
	if !ap.Converged {
		return fmt.Sprintf("direct %s: not converged at rank %d", name, ap.Rank)
	}
	if v.inject && ap.Method == core.ACA {
		// Check a corrupted copy: codecLayers reads the direct results.
		ap = corruptedCopy(ap)
	}
	bound := e.tol * e.a.FrobNorm()
	if got := ap.TrueError(e.a); !(got <= bound) {
		return fmt.Sprintf("direct %s: exact error %.4g > τ‖A‖_F = %.4g", name, got, bound)
	}
	return ""
}

// check counts one operation per distinct spec, its direct solve's
// accuracy, and one per reply. A reply fails when it was not a 200
// with a finished, converged job, when its rank or factor count
// differs from the direct solve of the same spec, or when a downloaded
// factor does not parse as MatrixMarket with the factor's dimensions.
func (v *verifier) check(rs []reply, bodies map[string][]byte, rep *report) {
	var reqs []request
	for _, r := range rs {
		if !r.get {
			reqs = append(reqs, r.req)
		}
	}
	for _, k := range v.solveDirect(reqs) {
		rep.op(v.acc[k])
	}
	parsed := map[string]string{} // key/factor → "" or the parse failure
	for _, r := range rs {
		rep.op(v.fault(r, bodies, parsed))
	}
}

func (v *verifier) fault(r reply, bodies map[string][]byte, parsed map[string]string) string {
	what := "submit"
	if r.get {
		what = "download " + r.factor
	}
	if r.err != "" {
		return fmt.Sprintf("%s: %s", what, r.err)
	}
	if r.code != http.StatusOK {
		return fmt.Sprintf("%s: HTTP %d", what, r.code)
	}
	ap, err := v.direct[r.key], v.errs[r.key]
	if err != nil {
		return fmt.Sprintf("%s: direct solve: %v", what, err)
	}
	if ap == nil {
		return fmt.Sprintf("%s: key %.12s has no direct solve", what, r.key)
	}
	if !r.get {
		if r.status != string(serve.StatusDone) {
			return fmt.Sprintf("submit: status %q", r.status)
		}
		if !r.converged {
			return fmt.Sprintf("submit: served result not converged at rank %d", r.rank)
		}
		if r.rank != ap.Rank || r.nnz != ap.NNZFactors {
			return fmt.Sprintf("submit: served rank %d nnz %d, direct rank %d nnz %d", r.rank, r.nnz, ap.Rank, ap.NNZFactors)
		}
		return ""
	}
	if !r.same {
		return what + ": body differs from an earlier download of the same factor"
	}
	k := r.key + "/" + r.factor
	msg, ok := parsed[k]
	if !ok {
		msg = checkFactor(bodies[k], ap, r.factor)
		parsed[k] = msg
	}
	if msg != "" {
		return what + ": " + msg
	}
	return ""
}

// tracedSolve is a serve.SolveFunc that does what serve.DefaultSolve
// does, with a span around Spec.Matrix.
func tracedSolve(tr *tracer) serve.SolveFunc {
	return func(spec *serve.Spec, store *dist.CheckpointStore) (*core.Approximation, error) {
		id := tr.begin("serve.parse", -1)
		a, err := spec.Matrix()
		tr.finish(id)
		if err != nil {
			return nil, err
		}
		opts := spec.CoreOptions()
		if store != nil {
			opts.CheckpointEvery = spec.CheckpointEvery
			opts.CheckpointStore = store
		}
		return core.Approximate(a, opts)
	}
}

// setupServe generates the small analogs, encodes the catalog and boots
// a daemon, repeatedly (see repeatSetup); all but the last daemon are
// closed.
func setupServe(cfg config, solve serve.SolveFunc, tag string) ([]entry, *daemon, float64, int, error) {
	var cat []entry
	var d *daemon
	setup, reps, err := repeatSetup(func(r int) (time.Duration, error) {
		if d != nil {
			if err := d.close(); err != nil {
				return 0, err
			}
		}
		dir := filepath.Join(cfg.scratch, fmt.Sprintf("serve-%d-%s-%d", os.Getpid(), tag, r))
		t0 := time.Now()
		var err error
		if cat, err = buildCatalog(tableI(gen.Small, cfg.seed)); err != nil {
			return 0, err
		}
		if d, err = bootDaemon(dir, solve); err != nil {
			return 0, err
		}
		return time.Since(t0), nil
	})
	if err != nil && d != nil {
		d.close()
	}
	return cat, d, setup, reps, err
}

// session is one booted daemon with its catalog, warmed once, and every
// reply it gave.
type session struct {
	cat    []entry
	d      *daemon
	c      *client
	seed   int64
	setupS float64
	setupN int
	warm   []reply
	ph     *servePhase
	extra  []reply // probe submits after the timed phase
	v      *verifier
	inject bool // see verifier.inject
}

func openSession(cfg config, solve serve.SolveFunc, tag string) (*session, error) {
	cat, d, setup, reps, err := setupServe(cfg, solve, tag)
	if err != nil {
		return nil, err
	}
	c := newClient(d, cfg.inject == "http")
	s := &session{cat: cat, d: d, c: c, seed: cfg.seed, setupS: setup, setupN: reps, inject: cfg.inject == "tau"}
	s.warm = c.warm(cat, cfg.seed)
	return s, nil
}

// run is the timed closed-loop phase.
func (s *session) run(seq *sequence, budget float64) error {
	var err error
	s.ph, err = s.c.phase(s.cat, seq, budget)
	return err
}

// close stops the daemon.
func (s *session) close() error {
	s.c.close()
	return s.d.close()
}

// verify checks every reply of the session against direct solves.
func (s *session) verify(rep *report) {
	s.v = &verifier{cat: s.cat, direct: map[string]*core.Approximation{}, errs: map[string]error{}, acc: map[string]string{}, inject: s.inject}
	all := append(append([]reply(nil), s.warm...), s.extra...)
	if s.ph != nil {
		all = append(all, s.ph.replies...)
	}
	s.v.check(all, s.c.bodies, rep)
}

// runServeWorkload runs the serve workload.
func runServeWorkload(cfg config, rep *report) error {
	if cfg.trace {
		return traceServeWorkload(cfg, rep)
	}
	s, err := openSession(cfg, serve.DefaultSolve, "e2e")
	if err != nil {
		return err
	}
	if err := s.run(newSequence(cfg.seed, len(s.cat), 0), cfg.seconds); err != nil {
		s.close()
		return err
	}
	if err := s.close(); err != nil {
		return err
	}
	s.verify(rep)

	ph := s.ph
	var lat, cold []float64
	for _, r := range ph.replies {
		lat = append(lat, r.latency)
		if !r.get && r.outcome == string(serve.Enqueued) {
			cold = append(cold, r.latency)
		}
	}
	nnz, rank := catalogTotals(s.warm)
	rep.set("setup_s", "s", s.setupS, s.setupN)
	rep.set("time_to_tol_s", "s", median(ph.blocks), len(ph.blocks))
	rep.set("alloc_mb", "MB", ph.allocMB, len(ph.blocks))
	rep.set("factor_nnz", "count", nnz, len(s.warm))
	rep.set("rank_total", "count", rank, len(s.warm))
	rep.set("req_p50_ms", "ms", 1000*median(lat), len(lat))
	rep.set("req_p99_ms", "ms", 1000*percentile(lat, 99), len(lat))
	rep.set("req_per_s", "1/s", float64(len(lat))/ph.wall, len(lat))
	rep.set("cold_p50_ms", "ms", 1000*median(cold), len(cold))
	rep.note("serve: %d catalog entries warmed, then %d requests (%d cold) in %.1f s from %d closed-loop clients; a pass is %d submits (%s s)",
		len(s.warm), len(lat), len(cold), ph.wall, serveClients, freshEvery*len(s.cat), fmtList(ph.blocks))
	rep.note("host steal share of the timed phase: %.3f", ph.steal)
	return nil
}

// catalogTotals sums rank and factor count over the catalog's served
// results.
func catalogTotals(warm []reply) (nnz, rank float64) {
	for _, r := range warm {
		nnz += float64(r.nnz)
		rank += float64(r.rank)
	}
	return nnz, rank
}

// checkFactor parses a downloaded factor and compares its dimensions to
// the direct solve's factor of the same name.
func checkFactor(body []byte, ap *core.Approximation, name string) string {
	rows, cols, err := parseMatrixMarketDims(body)
	if err != nil {
		return err.Error()
	}
	wr, wc, ok := factorDims(ap, name)
	if !ok {
		return fmt.Sprintf("direct result has no factor %q", name)
	}
	if rows != wr || cols != wc {
		return fmt.Sprintf("factor is %d×%d, want %d×%d", rows, cols, wr, wc)
	}
	return ""
}

// parseMatrixMarketDims parses a coordinate body with the library
// reader, or a dense array body here, and returns its dimensions after
// checking that the body holds exactly the entries it claims.
func parseMatrixMarketDims(body []byte) (int, int, error) {
	header, rest, _ := bytes.Cut(body, []byte("\n"))
	f := strings.Fields(strings.ToLower(string(header)))
	if len(f) < 3 || f[0] != "%%matrixmarket" {
		return 0, 0, fmt.Errorf("bad MatrixMarket banner %q", header)
	}
	if f[2] == "coordinate" {
		a, err := sparse.ReadMatrixMarket(bytes.NewReader(body))
		if err != nil {
			return 0, 0, err
		}
		r, c := a.Dims()
		return r, c, nil
	}
	if f[2] != "array" {
		return 0, 0, fmt.Errorf("unknown MatrixMarket format %q", f[2])
	}
	vals := strings.Fields(string(rest))
	if len(vals) < 2 {
		return 0, 0, fmt.Errorf("missing size line")
	}
	r, err1 := strconv.Atoi(vals[0])
	c, err2 := strconv.Atoi(vals[1])
	if err1 != nil || err2 != nil || r < 0 || c < 0 {
		return 0, 0, fmt.Errorf("bad size line %q %q", vals[0], vals[1])
	}
	if len(vals)-2 != r*c {
		return 0, 0, fmt.Errorf("array claims %d×%d but holds %d values", r, c, len(vals)-2)
	}
	for _, s := range vals[2:] {
		if _, err := strconv.ParseFloat(s, 64); err != nil {
			return 0, 0, fmt.Errorf("bad value %q", s)
		}
	}
	return r, c, nil
}

// factorDims returns the dimensions of the named factor of ap.
func factorDims(ap *core.Approximation, name string) (int, int, bool) {
	type dimser interface{ Dims() (int, int) }
	var f dimser
	switch {
	case ap.LU != nil && name == "L":
		f = ap.LU.L
	case ap.LU != nil && name == "U":
		f = ap.LU.U
	case ap.QB != nil && name == "Q":
		f = ap.QB.Q
	case ap.QB != nil && name == "B":
		f = ap.QB.B
	case ap.CUR != nil && name == "C":
		f = ap.CUR.C
	case ap.CUR != nil && name == "U":
		f = ap.CUR.U
	case ap.CUR != nil && name == "R":
		f = ap.CUR.R
	default:
		return 0, 0, false
	}
	r, c := f.Dims()
	return r, c, true
}
