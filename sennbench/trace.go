package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer's epoch; parent is the index of the enclosing
// span in the same tracer (-1 for a root); req groups the spans of one
// request; attr carries a small call-specific tag (the resolution source of
// a Query span).
type span struct {
	name   string
	start  int64
	end    int64
	parent int32
	req    int64
	attr   int32
}

func (s span) dur() int64 { return s.end - s.start }

// tracer records spans in memory for one goroutine. A nil *tracer records
// nothing, so untraced code paths call the same methods at no cost beyond a
// nil check.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index (-1 when t is nil).
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.spans = append(t.spans, span{name: name, start: now, end: now, parent: parent, req: req})
	return int32(len(t.spans) - 1)
}

// end closes span i with the given tag.
func (t *tracer) end(i int32, attr int32) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = int64(time.Since(t.epoch))
	t.spans[i].attr = attr
}

// child records an already-measured child span of parent that ended at the
// current instant and lasted d. The relay exchange is rebuilt this way from
// the client's relay observer.
func (t *tracer) child(name string, parent int32, req int64, d time.Duration) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.spans = append(t.spans, span{name: name, start: now - int64(d), end: now, parent: parent, req: req})
}

// selfTimes returns, for every span, its duration minus the time its direct
// children cover. Children of one synchronous call never overlap, so the
// covered time is the sum of their durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.parent >= 0 {
			self[s.parent] -= s.dur()
		}
	}
	return self
}

// writeTrace writes every tracer's spans as tab-separated text: a global
// span id, the parent's global id (-1 for a root), name, request id, start
// and end in ns, and the tag. Tracers are numbered in order, so ids stay
// unique across them.
func writeTrace(path string, tracers []*tracer) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\treq\tstart_ns\tend_ns\tattr")
	base := 0
	for _, t := range tracers {
		for i, s := range t.spans {
			parent := -1
			if s.parent >= 0 {
				parent = base + int(s.parent)
			}
			fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\t%d\n", base+i, parent, s.name, s.req, s.start, s.end, s.attr)
		}
		base += len(t.spans)
	}
	return w.Flush()
}
