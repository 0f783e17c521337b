package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lsqr"
	"repro/internal/mdc"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder was created; Parent is the id of the
// span that caused this one (0 = root); Unit is the solve or job the
// span belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Unit   int    `json:"unit"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. The wrappers below
// call it from the per-frequency goroutines of the mdc fan-out, so
// appends are serialized by a mutex; one append costs tens of
// nanoseconds against kernel calls of tens of microseconds and up.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span

	// unit and opSpan give kernel spans their solve and their parent:
	// solves run one at a time and an operator applies one product at a
	// time, so a single slot each is enough.
	unit   atomic.Int64
	opSpan atomic.Int64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span and returns its id; end closes it.
func (r *recorder) begin(name string, parent int) int {
	start := r.now()
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Unit: int(r.unit.Load()), Name: name, Start: start})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	end := r.now()
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

// add records an already-measured interval (the serve-mix client
// observes its phases as timestamps on the event stream).
func (r *recorder) add(name string, parent, unit int, start, end int64) int {
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Unit: unit, Name: name, Start: start, End: end})
	r.mu.Unlock()
	return id
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func writeTrace(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// coveredBy returns how much of parent the child spans cover: the length
// of the union of their intervals clipped to the parent. Children
// overlap when the mdc fan-out runs frequencies on several workers, so
// summing their durations would count that time twice.
func coveredBy(parent span, children []span) time.Duration {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	total += curHi - curLo
	return time.Duration(total)
}

// childrenOf groups spans by parent id.
func childrenOf(spans []span) map[int][]span {
	out := map[int][]span{}
	for _, s := range spans {
		out[s.Parent] = append(out[s.Parent], s)
	}
	return out
}

// tracedOperator times every product of an lsqr.Operator as a child of
// the current solve span.
type tracedOperator struct {
	inner lsqr.Operator
	rec   *recorder
	solve int
	// after, when non-nil, runs once each product has returned, outside
	// its span: solve-ooc samples the store's resident bytes there, at a
	// point where no load is in flight.
	after func()
}

func (o *tracedOperator) done(id int) {
	o.rec.end(id)
	if o.after != nil {
		o.after()
	}
}

func (o *tracedOperator) Rows() int { return o.inner.Rows() }
func (o *tracedOperator) Cols() int { return o.inner.Cols() }

func (o *tracedOperator) Apply(x, y []complex64) {
	id := o.rec.begin("mdc.apply", o.solve)
	o.rec.opSpan.Store(int64(id))
	o.inner.Apply(x, y)
	o.done(id)
}

func (o *tracedOperator) ApplyAdjoint(x, y []complex64) {
	id := o.rec.begin("mdc.adjoint", o.solve)
	o.rec.opSpan.Store(int64(id))
	o.inner.ApplyAdjoint(x, y)
	o.done(id)
}

// tracedKernel times every per-frequency product of an mdc.Kernel as a
// child of the operator product that issued it. wrapKernel returns the
// variant that implements exactly the optional interfaces of the kernel
// it wraps (CheckedKernel, NormalKernel), because mdc.FreqOperator picks
// its route by type assertion: a wrapper that hid ApplyChecked would
// trace a different route from the one the untraced run measures.
type tracedKernel struct {
	inner mdc.Kernel
	rec   *recorder
}

func (k *tracedKernel) NumFreqs() int { return k.inner.NumFreqs() }
func (k *tracedKernel) Rows() int     { return k.inner.Rows() }
func (k *tracedKernel) Cols() int     { return k.inner.Cols() }
func (k *tracedKernel) Bytes() int64  { return k.inner.Bytes() }

// begin opens a kernel span under the operator product in flight.
func (k *tracedKernel) begin(name string) int {
	return k.rec.begin(name, int(k.rec.opSpan.Load()))
}

func (k *tracedKernel) Apply(f int, x, y []complex64) {
	id := k.begin("tlr.apply")
	k.inner.Apply(f, x, y)
	k.rec.end(id)
}

func (k *tracedKernel) ApplyAdjoint(f int, x, y []complex64) {
	id := k.begin("tlr.adjoint")
	k.inner.ApplyAdjoint(f, x, y)
	k.rec.end(id)
}

type tracedChecked struct {
	tracedKernel
	ck mdc.CheckedKernel
}

func (k *tracedChecked) ApplyChecked(f int, x, y []complex64) error {
	id := k.begin("tlr.apply")
	err := k.ck.ApplyChecked(f, x, y)
	k.rec.end(id)
	return err
}

func (k *tracedChecked) ApplyAdjointChecked(f int, x, y []complex64) error {
	id := k.begin("tlr.adjoint")
	err := k.ck.ApplyAdjointChecked(f, x, y)
	k.rec.end(id)
	return err
}

type tracedNormal struct {
	tracedKernel
	nk mdc.NormalKernel
}

func (k *tracedNormal) ApplyNormal(f int, x, y []complex64) {
	id := k.begin("tlr.normal")
	k.nk.ApplyNormal(f, x, y)
	k.rec.end(id)
}

type tracedCheckedNormal struct {
	tracedChecked
	nk mdc.NormalKernel
}

func (k *tracedCheckedNormal) ApplyNormal(f int, x, y []complex64) {
	id := k.begin("tlr.normal")
	k.nk.ApplyNormal(f, x, y)
	k.rec.end(id)
}

func wrapKernel(inner mdc.Kernel, rec *recorder) mdc.Kernel {
	base := tracedKernel{inner: inner, rec: rec}
	ck, checked := inner.(mdc.CheckedKernel)
	nk, normal := inner.(mdc.NormalKernel)
	switch {
	case checked && normal:
		return &tracedCheckedNormal{tracedChecked{base, ck}, nk}
	case checked:
		return &tracedChecked{base, ck}
	case normal:
		return &tracedNormal{base, nk}
	}
	return &base
}
