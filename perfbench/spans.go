package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Every span of one compile or one
// request carries that compile's or request's id.
type span struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the run's first span
	End    int64  `json:"end_ns"`
}

// spanLog keeps a traced run's spans in memory until the run ends. A nil
// *spanLog records nothing, so untraced runs pay only a nil check.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	list  []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) add(id, name, parent string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.list = append(l.list, span{ID: id, Name: name, Parent: parent,
		Start: int64(start.Sub(l.epoch)), End: int64(end.Sub(l.epoch))})
	l.mu.Unlock()
}

// write stores the spans as JSON lines in dir/spans-<workload>.jsonl and
// returns the file's path.
func (l *spanLog) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for i := range l.list {
		if err := enc.Encode(&l.list[i]); err != nil {
			l.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close %s: %w", path, err)
	}
	return path, nil
}
