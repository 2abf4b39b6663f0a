package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one recorded interval on a driver goroutine. Parent indexes
// the same tracer's kept spans (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
}

// spanAgg accumulates every span of one name.
type spanAgg struct {
	count uint64
	total time.Duration
	self  time.Duration
}

type openSpan struct {
	name  string
	start time.Duration
	child time.Duration // summed durations of closed child spans
	kept  int32         // index in kept, -1 when beyond the keep cap
}

// tracer records nested spans for one goroutine. Spans on one goroutine
// nest strictly, so a span's self time is its duration minus its
// children's. A nil *tracer records nothing, so instrumented code runs
// the same way traced or not.
type tracer struct {
	loop  string
	epoch time.Time
	stack []openSpan
	agg   map[string]*spanAgg
	kept  []span
}

// keepSpans bounds the raw spans each tracer keeps for the trace file;
// aggregates cover every span regardless.
const keepSpans = 20000

func newTracer(loop string, epoch time.Time) *tracer {
	return &tracer{loop: loop, epoch: epoch, agg: make(map[string]*spanAgg)}
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	t.beginAt(name, time.Since(t.epoch))
}

func (t *tracer) beginAt(name string, at time.Duration) {
	idx := int32(-1)
	if len(t.kept) < keepSpans {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].kept
		}
		idx = int32(len(t.kept))
		t.kept = append(t.kept, span{Name: name, Start: int64(at), Parent: parent})
	}
	t.stack = append(t.stack, openSpan{name: name, start: at, kept: idx})
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	if t == nil {
		return 0
	}
	return t.endAt(time.Since(t.epoch))
}

func (t *tracer) endAt(at time.Duration) time.Duration {
	n := len(t.stack)
	o := t.stack[n-1]
	t.stack = t.stack[:n-1]
	d := at - o.start
	if n > 1 {
		t.stack[n-2].child += d
	}
	a := t.agg[o.name]
	if a == nil {
		a = &spanAgg{}
		t.agg[o.name] = a
	}
	a.count++
	a.total += d
	a.self += d - o.child
	if o.kept >= 0 {
		t.kept[o.kept].End = int64(at)
	}
	return d
}

// rootLayer names the driver loops' root spans; their self time is the
// loop's own bookkeeping, reported as "other".
const rootLayer = "loop"

// layerOf maps a span name ("cascade.batch") to its layer ("cascade").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// attribution is the traced total split into per-layer self times.
type attribution struct {
	total time.Duration
	self  map[string]time.Duration // by layer; rootLayer is "other"
}

// attribute sums self time per layer across tracers. The total is the
// summed duration of the root spans; because every span's self time
// excludes exactly its children, the layer self times add up to it.
func attribute(ts ...*tracer) attribution {
	at := attribution{self: make(map[string]time.Duration)}
	for _, t := range ts {
		if t == nil {
			continue
		}
		for name, a := range t.agg {
			at.self[layerOf(name)] += a.self
			if layerOf(name) == rootLayer {
				at.total += a.total
			}
		}
	}
	return at
}

// aggOf merges one span name's aggregate across tracers.
func aggOf(name string, ts ...*tracer) *spanAgg {
	out := &spanAgg{}
	for _, t := range ts {
		if t == nil {
			continue
		}
		if a := t.agg[name]; a != nil {
			out.count += a.count
			out.total += a.total
			out.self += a.self
		}
	}
	return out
}

// writeSpans writes the kept spans of every tracer as JSON lines, one
// span per line, tagged with its loop.
func writeSpans(path string, ts ...*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range ts {
		if t == nil {
			continue
		}
		for _, s := range t.kept {
			if err := enc.Encode(struct {
				Loop string `json:"loop"`
				span
			}{t.loop, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerNames lists the layers in an attribution, sorted.
func (at attribution) layerNames() []string {
	var out []string
	for l := range at.self {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

func (at attribution) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "total %v:", at.total)
	for _, l := range at.layerNames() {
		fmt.Fprintf(&b, " %s=%v", l, at.self[l])
	}
	return b.String()
}
