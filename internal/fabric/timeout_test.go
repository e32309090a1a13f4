package fabric

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/serve"
)

// TestServerTimeoutsSpareLongSweeps: the daemons' http.Server drops a
// client that never finishes its request header, yet sets no read or
// write deadline, so an SSE sweep that outlasts every timeout the
// server does set still streams to completion.
func TestServerTimeoutsSpareLongSweeps(t *testing.T) {
	worker, err := serve.New(serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every job waits 700 ms at the worker; one job in flight makes the
	// three-job sweep below take over two seconds.
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(700 * time.Millisecond)
		worker.Handler().ServeHTTP(w, r)
	}))
	defer slow.Close()
	coord := newCoordinator(t, []string{slow.URL}, Options{MaxParallelism: 1})

	hs := api.NewHTTPServer(coord.Handler())
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("no header or idle timeout: header=%v idle=%v", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Fatalf("read/write timeouts would cut off SSE sweeps: read=%v write=%v", hs.ReadTimeout, hs.WriteTimeout)
	}
	// Shrink the timeouts so the test takes seconds; the sweep still
	// outlasts each of them several times over.
	hs.ReadHeaderTimeout, hs.IdleTimeout = 300*time.Millisecond, 300*time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()

	type result struct {
		code int
		body string
		took time.Duration
		err  error
	}
	done := make(chan result, 1)
	go func() {
		start := time.Now()
		req, err := http.NewRequest(http.MethodPost, "http://"+ln.Addr().String()+"/v1/sweep/bottleneck",
			strings.NewReader(`{"workloads":["sc","nn","cfd"],"warmup_cycles":100,"window_cycles":200}`))
		if err != nil {
			done <- result{err: err}
			return
		}
		req.Header.Set("Accept", "text/event-stream")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		done <- result{code: resp.StatusCode, body: string(data), took: time.Since(start), err: err}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /v1/sweep/bottleneck HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); n != 0 || !errors.Is(err, io.EOF) {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatal("partial-header client still connected after 5 s")
		}
		t.Fatalf("partial-header client: read %d bytes, err %v; want the server to close", n, err)
	}

	res := <-done
	if res.err != nil || res.code != http.StatusOK {
		t.Fatalf("SSE sweep: code %d, err %v, body %q", res.code, res.err, res.body)
	}
	events := parseSSE(t, res.body)
	if len(events) != 4 || events[3].name != "done" {
		t.Fatalf("SSE sweep did not complete: %+v", events)
	}
	if res.took < 5*hs.ReadHeaderTimeout {
		t.Fatalf("sweep took %v, too short to outlast the server timeouts", res.took)
	}
}
