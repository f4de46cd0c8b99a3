package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark side of
// that layer's public function. Parent indexes the enclosing span in the
// same Tracer (-1 for a root); spans of one request share Req.
type Span struct {
	Name   string
	Start  int64 // ns since the tracer's origin
	End    int64
	Parent int32
	Req    int64
}

// Tracer keeps spans in memory for one goroutine. A nil *Tracer is the off
// switch: Begin returns -1 and End does nothing, so untraced runs pay one
// branch per boundary.
type Tracer struct {
	origin time.Time
	Spans  []Span
}

// NewTracer returns a tracer whose timestamps count from origin. Tracers
// that share an origin can be merged on one time axis.
func NewTracer(origin time.Time) *Tracer { return &Tracer{origin: origin} }

// Begin opens a span and returns its id.
func (t *Tracer) Begin(name string, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	t.Spans = append(t.Spans, Span{
		Name: name, Start: int64(time.Since(t.origin)), Parent: parent, Req: req,
	})
	return int32(len(t.Spans) - 1)
}

// End closes span id.
func (t *Tracer) End(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.Spans[id].End = int64(time.Since(t.origin))
}

// LayerTime is the aggregate of every span of one name.
type LayerTime struct {
	Count   int
	TotalNS int64 // summed span durations
	SelfNS  int64 // TotalNS minus the time child spans cover
}

// MeanUS returns the mean span duration in microseconds (0 with no spans).
func (l LayerTime) MeanUS() float64 {
	if l.Count == 0 {
		return 0
	}
	return float64(l.TotalNS) / float64(l.Count) / 1e3
}

// Aggregate sums span durations and self times per span name over tracers.
// Children of one span never overlap (each tracer is one goroutine), so a
// parent's self time is its duration minus its children's durations.
func Aggregate(tracers ...*Tracer) map[string]LayerTime {
	out := map[string]LayerTime{}
	for _, t := range tracers {
		if t == nil {
			continue
		}
		child := make([]int64, len(t.Spans))
		for _, s := range t.Spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range t.Spans {
			l := out[s.Name]
			l.Count++
			l.TotalNS += s.End - s.Start
			l.SelfNS += s.End - s.Start - child[i]
			out[s.Name] = l
		}
	}
	return out
}

// WriteTraces writes every span as one tab-separated line (tracer, name,
// start ns, end ns, parent, request id) to a gzip file under dir. The
// header line carries the provenance stamp.
func WriteTraces(dir, name string, prov Provenance, tracers ...*Tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".tsv.gz")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintf(w, "# %s\n", prov.JSON())
	fmt.Fprintln(w, "tracer\tname\tstart_ns\tend_ns\tparent\treq")
	for ti, t := range tracers {
		if t == nil {
			continue
		}
		for _, s := range t.Spans {
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", ti, s.Name, s.Start, s.End, s.Parent, s.Req)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
