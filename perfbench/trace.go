package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own code around a public function of that layer.
type span struct {
	name       string
	parent     int // index of the causing span, -1 at the root
	start, end time.Time
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Now()})
	return len(t.spans) - 1
}

func (t *tracer) finish(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// durations returns the closed spans' durations in seconds by name.
func (t *tracer) durations() map[string][]float64 {
	out := map[string][]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if !s.end.IsZero() {
			out[s.name] = append(out[s.name], s.end.Sub(s.start).Seconds())
		}
	}
	return out
}

// write stores the closed spans as JSON lines, times in microseconds
// from the first span's start, for reading a traced run offline.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		if s.end.IsZero() {
			continue
		}
		rec := struct {
			ID      int    `json:"id"`
			Parent  int    `json:"parent"`
			Name    string `json:"name"`
			StartUS int64  `json:"start_us"`
			DurUS   int64  `json:"dur_us"`
		}{i, s.parent, s.name, s.start.Sub(t.spans[0].start).Microseconds(), s.end.Sub(s.start).Microseconds()}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuProfile is a CPU profile taken in chunks, so that untraced work
// between the chunks runs without the profiler.
type cpuProfile struct {
	chunks []*bytes.Buffer
}

func (p *cpuProfile) start() error {
	buf := &bytes.Buffer{}
	if err := pprof.StartCPUProfile(buf); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p.chunks = append(p.chunks, buf)
	return nil
}

// stop ends the current chunk; the profile's last bytes are written
// before StopCPUProfile returns.
func (p *cpuProfile) stop() { pprof.StopCPUProfile() }

// gcSampler measures GC CPU time against total CPU time between two
// points of a run, from the runtime's own accounting.
type gcSampler struct{ gc, total float64 }

func sampleGC() gcSampler {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcSampler{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// fracSince is the share of CPU time spent in GC since the sample.
func (g gcSampler) fracSince() float64 {
	now := sampleGC()
	if now.total <= g.total {
		return 0
	}
	return (now.gc - g.gc) / (now.total - g.total)
}

// cpuBuckets are the packages a CPU profile is attributed to, by the
// metric suffix each reports under (cpu.<bucket>_s).
var cpuBuckets = map[string]string{
	"sparselr/internal/mat":      "mat",
	"sparselr/internal/sparse":   "sparse",
	"sparselr/internal/sketch":   "sketch",
	"sparselr/internal/qrtp":     "qrtp",
	"sparselr/internal/ordering": "ordering",
	"sparselr/internal/lucrtp":   "lucrtp",
	"sparselr/internal/randqb":   "randqb",
	"sparselr/internal/cur":      "cur",
	"sparselr/internal/serve":    "serve",
	"net/http":                   "nethttp",
}

// cpuBucketNames lists every bucket, gc included, in report order.
var cpuBucketNames = []string{"mat", "sparse", "sketch", "qrtp", "ordering", "lucrtp", "randqb", "cur", "serve", "nethttp", "gc"}

// attributeCPU reads a gzipped pprof CPU profile and returns sampled CPU
// seconds per bucket. A sample whose leaf runs inside the allocator or
// the collector (a run of runtime frames that includes mallocgc or a
// runtime.gc*/bgsweep/bgscavenge frame) counts as gc. Any other sample
// counts toward the package of its innermost frame that belongs to a
// bucket, so standard-library helpers (encoding/json, crypto/sha256,
// memmove) are charged to the layer that called them.
func attributeCPU(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range p.locLines[loc] {
				frames = append(frames, p.strings[p.funcName[fn]])
			}
		}
		out[bucketOf(frames)] += float64(s.nanos) / 1e9
	}
	return out, nil
}

// bucketOf classifies one stack, leaf first.
func bucketOf(frames []string) string {
	for _, f := range frames {
		if pkgOf(f) != "runtime" {
			break
		}
		if f == "runtime.mallocgc" || strings.HasPrefix(f, "runtime.gc") ||
			f == "runtime.bgsweep" || f == "runtime.bgscavenge" {
			return "gc"
		}
	}
	for _, f := range frames {
		if b, ok := cpuBuckets[pkgOf(f)]; ok {
			return b
		}
	}
	return "other"
}

// pkgOf returns the import path of a fully qualified function name such
// as "sparselr/internal/mat.(*Dense).At" or "net/http.(*conn).serve".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// profile is the part of a pprof profile.proto the attribution needs.
type profile struct {
	samples  []profSample
	locLines map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]int64    // function id → string table index
	strings  []string
}

type profSample struct {
	locs  []uint64 // leaf first
	nanos int64
}

// parseProfile decodes the protobuf wire format of profile.proto:
// Profile{sample=2, location=4, function=5, string_table=6},
// Sample{location_id=1, value=2}, Location{id=1, line=4},
// Line{function_id=1}, Function{id=1, name=2}.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := pbFields(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case 2:
			var s profSample
			var vals []uint64
			if err := pbFields(msg, func(n int, v uint64, m []byte) error {
				switch n {
				case 1:
					return pbRepeated(v, m, &s.locs)
				case 2:
					return pbRepeated(v, m, &vals)
				}
				return nil
			}); err != nil {
				return err
			}
			// CPU profiles carry [samples, cpu nanoseconds].
			if len(vals) >= 2 {
				s.nanos = int64(vals[1])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			if err := pbFields(msg, func(n int, v uint64, m []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return pbFields(m, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locLines[id] = fns
		case 5:
			var id uint64
			var name int64
			if err := pbFields(msg, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for _, idx := range p.funcName {
		if idx < 0 || int(idx) >= len(p.strings) {
			return nil, fmt.Errorf("cpu profile: function name index %d out of range", idx)
		}
	}
	return p, nil
}

// pbFields walks the fields of one protobuf message. Varint fields pass
// their value, length-delimited fields their bytes; fixed-width fields
// are skipped.
func pbFields(b []byte, fn func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := pbVarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length")
			}
			msg := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, msg); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// pbRepeated appends a repeated varint field given either unpacked (v)
// or packed (msg).
func pbRepeated(v uint64, msg []byte, dst *[]uint64) error {
	if msg == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(msg) > 0 {
		x, n := pbVarint(msg)
		if n <= 0 {
			return fmt.Errorf("bad packed varint")
		}
		*dst = append(*dst, x)
		msg = msg[n:]
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
