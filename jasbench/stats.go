package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"time"
)

// percentile returns the p-th quantile (0 <= p <= 1) of xs by linear
// interpolation between the two closest ranks (rank p*(n-1), zero-based),
// the rule numpy and Python's statistics "inclusive" method use. xs need
// not be sorted; it is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// beyond counts the samples strictly above the p-th quantile: the tail a
// percentile rests on. A tail percentile is trustworthy when this is at
// least ten.
func beyond(xs []float64, p float64) int {
	q := percentile(xs, p)
	n := 0
	for _, x := range xs {
		if x > q {
			n++
		}
	}
	return n
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// namePattern is the charset and length every metric and workload name
// must satisfy: it starts with a letter or digit and uses only letters,
// digits, '_', '.' and '-', at most 64 characters.
var namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// unitPattern bounds metric units the same way (at most 16 characters).
var unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// Metric limits: at most this many end-to-end and per-layer metrics.
const (
	maxEndToEnd = 16
	maxPerLayer = 128
)

// metricDef names one metric the benchmark emits.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end metrics only
}

// metricValue is one measured metric as the result line prints it.
type metricValue struct {
	Name  string
	Unit  string
	Value float64
}

// checkCatalog validates one metric family against the naming rules,
// the uniqueness rule and its size limit.
func checkCatalog(defs []metricDef, limit int) error {
	if len(defs) == 0 || len(defs) > limit {
		return fmt.Errorf("%d metrics, want 1..%d", len(defs), limit)
	}
	seen := map[string]bool{}
	for _, d := range defs {
		if !namePattern.MatchString(d.Name) {
			return fmt.Errorf("metric name %q: want %s", d.Name, namePattern)
		}
		if !unitPattern.MatchString(d.Unit) {
			return fmt.Errorf("metric %s unit %q: want %s", d.Name, d.Unit, unitPattern)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// span is one timed call the benchmark made into a layer of the program.
// Times are nanoseconds since the tracer's epoch; Parent is 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the span name up to its first '.', e.g. "db" for
// "db.script.jas2004".
func (s span) layer() string {
	for i := 0; i < len(s.Name); i++ {
		if s.Name[i] == '.' {
			return s.Name[:i]
		}
	}
	return s.Name
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a span whose interval was measured by the caller, for
// calls too short to pay for two clock reads and a lock each.
func (t *tracer) record(name string, parent, op int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover. Children may overlap each
// other (concurrent legs), so the covered part is the union of their
// intervals clipped to the parent's.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range clipped {
		if open && iv[0] <= curHi {
			curHi = max(curHi, iv[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = iv[0], iv[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerSelfMS sums self time per layer over the spans that keep(s) admits.
func layerSelfMS(spans []span, keep func(span) bool) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		if keep(s) {
			out[s.layer()] += float64(self[s.ID]) / 1e6
		}
	}
	return out
}

// spanDurations collects the durations, in ns, of every span with the
// given name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// mean averages xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
