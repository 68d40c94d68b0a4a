package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	pai "repro"
)

// TestRunServesAndFlushesOnSIGTERM drives the daemon end to end: run on a
// free port, upload a trace with late records, download the tenant's
// snapshot, then SIGTERM the process. run catches the signal, drains, and
// flushes the tenant to -state-dir; the flushed file must be byte-identical
// to the snapshot downloaded before the signal.
func TestRunServesAndFlushesOnSIGTERM(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("SIGTERM drain is POSIX-only")
	}
	stateDir := t.TempDir()
	logR, logW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := run([]string{"-addr", "127.0.0.1:0", "-window", "10s", "-windows", "16",
			"-state-dir", stateDir}, io.Discard, logW)
		logW.Close()
		done <- err
	}()
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(logR)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				addrc <- addr
			}
		}
	}()
	var base string
	select {
	case addr := <-addrc:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("run exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("no listen address logged")
	}

	p := pai.DefaultTraceParams()
	p.NumJobs = 400
	p.Seed = 4
	p.ArrivalRate = 7200
	tr, err := pai.GenerateTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Jobs {
		if i%9 == 8 && tr.Jobs[i].ArrivalSec > 30 {
			tr.Jobs[i].ArrivalSec -= 30 // three windows back
		}
	}
	var body bytes.Buffer
	if err := tr.WriteNDJSON(&body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/tenants/alpha/traces", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	resp, err = http.Get(base + "/v1/tenants/alpha/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(snap) == 0 {
		t.Fatalf("snapshot: status %d, %d bytes, %v", resp.StatusCode, len(snap), err)
	}

	self, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := self.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not drain after SIGTERM")
	}
	flushed, err := os.ReadFile(filepath.Join(stateDir, "alpha.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(flushed, snap) {
		t.Fatalf("flushed alpha.snap (%d bytes) differs from the downloaded snapshot (%d bytes)",
			len(flushed), len(snap))
	}
}
