package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"objinline/internal/server/api"
)

// TestLongChainWithinDefaultDeadline sends a 64k-term 1 + 1 + … chain
// (about 256 KB, well under the body limit) with no deadline of its own:
// it must compile within the server's default deadline, and run to print
// its sum. Every compile phase is linear in input size, so this takes a
// fraction of a second; a phase quadratic in the chain's length needs
// tens of seconds and gets a 504.
func TestLongChainWithinDefaultDeadline(t *testing.T) {
	const terms = 1 << 16
	src := "func main() {\n  print(1" + strings.Repeat(" + 1", terms-1) + ");\n}\n"
	_, ts := newTestServer(t, Config{})

	resp, body := postJSON(t, ts, "/v1/compile", api.CompileRequest{Filename: "chain.icc", Source: src})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status %d, want 200: %.300s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts, "/v1/run", api.RunRequest{
		CompileRequest: api.CompileRequest{Filename: "chain.icc", Source: src},
		IncludeOutput:  true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d, want 200: %.300s", resp.StatusCode, body)
	}
	var env api.Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if want := "65536\n"; env.Output != want {
		t.Errorf("output = %q, want %q", env.Output, want)
	}
}
