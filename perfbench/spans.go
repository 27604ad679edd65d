package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one request (a plan request, or one frame through
// the pipeline) share Req; Parent links a span to the span that caused
// it (0 = root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the log's epoch
	End    int64  `json:"end_ns"`
}

// maxSpans caps the in-memory log: streaming workloads produce one span
// per task per frame, so the log keeps the first maxSpans and counts the
// rest.
const maxSpans = 100_000

// spanLog keeps spans in memory until the run ends, then writes them out
// as JSON lines. A nil *spanLog records nothing.
type spanLog struct {
	epoch   time.Time
	nextID  atomic.Int64
	full    atomic.Bool // set once len(spans) reaches maxSpans
	dropped atomic.Int64
	mu      sync.Mutex
	spans   []span
}

func newSpanLog() *spanLog {
	return &spanLog{epoch: time.Now(), spans: make([]span, 0, 1024)}
}

// reserve returns a span ID for a span recorded later with recordID,
// so children can name their parent before it ends.
func (l *spanLog) reserve() int64 {
	if l == nil {
		return 0
	}
	return l.nextID.Add(1)
}

// record stores one call timed by the caller and returns its span ID.
// req groups the spans of one request; 0 makes the span its own request.
func (l *spanLog) record(parent, req int64, layer, name string, start, end time.Time) int64 {
	id := l.reserve()
	l.recordID(id, parent, req, layer, name, start, end)
	return id
}

// recordID is record for an ID obtained from reserve.
func (l *spanLog) recordID(id, parent, req int64, layer, name string, start, end time.Time) {
	if l == nil {
		return
	}
	if req == 0 {
		req = id
	}
	// Once the log is full a span costs one atomic add, not the lock.
	if l.full.Load() {
		l.dropped.Add(1)
		return
	}
	l.mu.Lock()
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, span{
			ID: id, Parent: parent, Req: req, Layer: layer, Name: name,
			Start: start.Sub(l.epoch).Nanoseconds(), End: end.Sub(l.epoch).Nanoseconds(),
		})
	} else {
		l.full.Store(true)
		l.dropped.Add(1)
	}
	l.mu.Unlock()
}

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// write stores the spans as JSON lines in dir/name and returns the path.
func (l *spanLog) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	l.mu.Lock()
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			l.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	l.mu.Unlock()
	fmt.Fprintf(bw, "{\"dropped\":%d}\n", l.dropped.Load())
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}
