package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"objinline/internal/server"
	"objinline/internal/server/api"
)

// serverHits is how many times a traced pass resubmits each input's
// compile request to the server after the first, each a cache hit.
const serverHits = 5

// serverSamples are a traced run's measurements of the server layer.
type serverSamples struct {
	hitMs         []float64
	hits, lookups int
	compiles      []float64 // per pass
	missMs, runMs [][]float64
}

func newServerSamples(inputs int) *serverSamples {
	return &serverSamples{missMs: make([][]float64, inputs), runMs: make([][]float64, inputs)}
}

// serverPass sends every input to a fresh oicd handler, in process and
// without sockets: each input's compile request once, which must miss
// the cache, then serverHits more times, which must hit it and return the
// same bytes, then a run request whose output must be the input's
// expected output. A pass must compile each input exactly once.
func serverPass(id string, inputs []compileInput, order []int, ss *serverSamples, sl *spanLog, t *tally) {
	srv := server.New(server.Config{PoolSize: 1, RequestRingEntries: -1})
	defer srv.Close()
	send := func(name, method, path string, body any) (*httptest.ResponseRecorder, float64) {
		payload, _ := json.Marshal(body) // api request structs always marshal
		req := httptest.NewRequest(method, path, bytes.NewReader(payload))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		srv.ServeHTTP(rec, req)
		t1 := time.Now()
		sl.add(id, "server/"+name, "", t0, t1)
		return rec, float64(t1.Sub(t0).Nanoseconds()) / 1e6
	}
	for _, i := range order {
		in := inputs[i]
		creq := api.CompileRequest{Filename: in.file, Source: in.src, Config: api.Config{Mode: in.mode.String()}}
		first, ms := send("miss", "POST", "/v1/compile", creq)
		if err := checkCompile(first, "miss", nil); err != nil {
			t.fail("%s: server compile: %v", in.name, err)
			continue
		}
		t.ok()
		ss.missMs[i] = append(ss.missMs[i], ms)
		ss.lookups++
		for k := 0; k < serverHits; k++ {
			rec, ms := send("hit", "POST", "/v1/compile", creq)
			ss.lookups++
			if err := checkCompile(rec, "hit", first.Body.Bytes()); err != nil {
				t.fail("%s: server resubmission: %v", in.name, err)
				continue
			}
			t.ok()
			ss.hits++
			ss.hitMs = append(ss.hitMs, ms)
		}
		rec, ms := send("run", "POST", "/v1/run", api.RunRequest{CompileRequest: creq, IncludeOutput: true})
		var env api.Envelope
		err := json.Unmarshal(rec.Body.Bytes(), &env)
		switch {
		case rec.Code != http.StatusOK:
			t.fail("%s: server run: status %d: %s", in.name, rec.Code, clip(rec.Body.String()))
		case err != nil:
			t.fail("%s: server run: %v", in.name, err)
		case env.Output != in.want:
			t.fail("%s: server run output differs from expected: got %q, want %q", in.name, clip(env.Output), clip(in.want))
		default:
			t.ok()
			ss.runMs[i] = append(ss.runMs[i], ms)
		}
	}
	rec, _ := send("metrics", "GET", "/metrics", nil)
	var vars struct {
		Compiles int `json:"compiles_total"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil || vars.Compiles != len(inputs) {
		t.fail("server: %d compiles for %d inputs (%v)", vars.Compiles, len(inputs), err)
		return
	}
	t.ok()
	ss.compiles = append(ss.compiles, float64(vars.Compiles))
}

// checkCompile checks a compile response: status 200, the cache status
// expected, and, for a hit, the bytes of the response that filled the
// cache.
func checkCompile(rec *httptest.ResponseRecorder, cache string, want []byte) error {
	if rec.Code != http.StatusOK {
		return fmt.Errorf("status %d: %s", rec.Code, clip(rec.Body.String()))
	}
	if h := rec.Header().Get("X-Oicd-Cache"); h != cache {
		return fmt.Errorf("X-Oicd-Cache %q, want %q", h, cache)
	}
	if want != nil && !bytes.Equal(rec.Body.Bytes(), want) {
		return fmt.Errorf("body differs from the response that filled the cache")
	}
	return nil
}

// serverMetrics sets the server layer's metrics: each time is the sum
// over inputs of the input's centre, the hit time the median hit.
func serverMetrics(m map[string]metric, ss *serverSamples) {
	var miss, run float64
	for i := range ss.missMs {
		miss += centre(ss.missMs[i])
		run += centre(ss.runMs[i])
	}
	set(m, "server.miss_ms", miss)
	set(m, "server.run_ms", run)
	set(m, "server.hit_ms", median(ss.hitMs))
	set(m, "server.compiles", median(ss.compiles))
	if ss.lookups > 0 {
		set(m, "server.cache_hit_ratio", float64(ss.hits)/float64(ss.lookups))
	}
}
