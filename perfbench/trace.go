package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// layer names a span: a call from the benchmark into one module's public
// function.
type layer uint8

const (
	lStoreReport layer = iota
	lStoreSearch
	lStoreKNN
	lCoreReport
	lCoreSearch
	lCoreKNN
	lIndexInsert
	lIndexDelete
	lIndexUpdate
	lIndexSearch
	lIndexKNN
	lStorageRead
	lStorageWrite
	lWALAppend
	lWALCommit
	lMonitorFilter
	lMonitorMatch
	numLayers
)

var layerNames = [numLayers]string{
	"store.report", "store.search", "store.knn",
	"core.report", "core.search", "core.knn",
	"index.insert", "index.delete", "index.update", "index.search", "index.knn",
	"storage.read", "storage.write",
	"wal.append", "wal.commit",
	"monitor.filter", "monitor.match",
}

var storeLayer = [numKinds]layer{lStoreReport, lStoreSearch, lStoreKNN}

func isIndex(l layer) bool { return l >= lIndexInsert && l <= lIndexKNN }

// span is one timed call. parent indexes the op's span list (-1 for a
// root); start and end are nanoseconds since the recorder's epoch.
type span struct {
	name       layer
	parent     int32
	start, end int64
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children may nest further and may overlap each
// other (the partition fan-out runs them in parallel), so the covered part
// is the length of the union of the children's intervals, clipped to the
// parent's.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	kids := make(map[int32][][2]int64)
	for i, s := range spans {
		self[i] = s.end - s.start
		if s.parent < 0 {
			continue
		}
		p := spans[s.parent]
		a, b := max(s.start, p.start), min(s.end, p.end)
		if b > a {
			kids[s.parent] = append(kids[s.parent], [2]int64{a, b})
		}
	}
	for p, iv := range kids {
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered := int64(0)
		cur := iv[0]
		for _, x := range iv[1:] {
			if x[0] <= cur[1] {
				cur[1] = max(cur[1], x[1])
				continue
			}
			covered += cur[1] - cur[0]
			cur = x
		}
		covered += cur[1] - cur[0]
		self[p] -= covered
	}
	return self
}

// recorder collects the spans of the op in flight (calls may arrive from
// the partition fan-out's worker goroutines) and keeps every finished op's
// spans, up to maxKept, for writing out when the run ends.
type recorder struct {
	epoch time.Time

	mu  sync.Mutex
	on  bool
	cur []span

	kept    []keptSpan
	dropped int64
}

// keptSpan is a span tagged with its op id and its index among that op's
// replica spans (-1 for the Store verb span) for the trace file.
type keptSpan struct {
	op  int64
	idx int32
	span
}

// maxKept bounds the spans held for the trace file (about 40 MB).
const maxKept = 1 << 20

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// open starts a span and returns its index, or -1 while recording is off.
func (r *recorder) open(name layer, parent int32) int32 {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on {
		return -1
	}
	r.cur = append(r.cur, span{name: name, parent: parent, start: t})
	return int32(len(r.cur) - 1)
}

func (r *recorder) close(i int32) {
	if i < 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.cur[i].end = t
	r.mu.Unlock()
}

// finish hands the in-flight op's spans to fn and files them under op.
// The caller serializes ops, so no span of this op is still open.
func (r *recorder) finish(op int64, fn func([]span)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn(r.cur)
	for i, s := range r.cur {
		r.keep(keptSpan{op: op, idx: int32(i), span: s})
	}
	r.cur = r.cur[:0]
}

// keep files one finished span. Caller holds mu.
func (r *recorder) keep(s keptSpan) {
	if len(r.kept) >= maxKept {
		r.dropped++
		return
	}
	r.kept = append(r.kept, s)
}

// addRoot files a root span timed outside the recorder (a Store verb).
func (r *recorder) addRoot(op int64, name layer, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.keep(keptSpan{op: op, idx: -1, span: span{name: name, parent: -1, start: int64(start.Sub(r.epoch)), end: int64(end.Sub(r.epoch))}})
}

// writeCSV writes the kept spans, one row each. span is the index among the
// op's replica spans (-1 for the Store verb span) and parent the index of
// the parent replica span (-1 for a root).
func (r *recorder) writeCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op,span,parent,name,start_ns,end_ns")
	for _, s := range r.kept {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.op, s.idx, s.parent, layerNames[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
