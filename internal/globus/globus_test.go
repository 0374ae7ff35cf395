package globus

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"proxystore/internal/netsim"
)

func newService(t *testing.T) (*Service, string, string) {
	t.Helper()
	n := netsim.Testbed(1000) // heavy compression: service latency 2ms
	svc := NewService(n)
	dirA := t.TempDir()
	dirB := t.TempDir()
	if err := svc.RegisterEndpoint("ep-a", netsim.SiteMidway2, dirA); err != nil {
		t.Fatalf("RegisterEndpoint: %v", err)
	}
	if err := svc.RegisterEndpoint("ep-b", netsim.SiteTheta, dirB); err != nil {
		t.Fatalf("RegisterEndpoint: %v", err)
	}
	return svc, dirA, dirB
}

func TestTransferMovesFile(t *testing.T) {
	svc, dirA, dirB := newService(t)
	if err := os.WriteFile(filepath.Join(dirA, "data.obj"), []byte("payload"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	taskID, err := svc.Submit("ep-a", "ep-b", []string{"data.obj"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Wait(ctx, taskID); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	got, err := os.ReadFile(filepath.Join(dirB, "data.obj"))
	if err != nil {
		t.Fatalf("reading transferred file: %v", err)
	}
	if string(got) != "payload" {
		t.Fatalf("transferred file = %q", got)
	}
	st, err := svc.Status(taskID)
	if err != nil || st != TaskSucceeded {
		t.Fatalf("Status = %v, %v", st, err)
	}
}

func TestBatchTransferSingleTask(t *testing.T) {
	svc, dirA, dirB := newService(t)
	files := []string{"a.obj", "b.obj", "c.obj"}
	for _, f := range files {
		os.WriteFile(filepath.Join(dirA, f), []byte(f), 0o644)
	}
	taskID, err := svc.Submit("ep-a", "ep-b", files)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Wait(ctx, taskID); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	for _, f := range files {
		if _, err := os.Stat(filepath.Join(dirB, f)); err != nil {
			t.Errorf("file %s not transferred: %v", f, err)
		}
	}
}

func TestMissingSourceFails(t *testing.T) {
	svc, _, _ := newService(t)
	taskID, err := svc.Submit("ep-a", "ep-b", []string{"never-written.obj"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Wait(ctx, taskID); err == nil {
		t.Fatal("Wait succeeded for a missing source file")
	}
	st, _ := svc.Status(taskID)
	if st != TaskFailed {
		t.Fatalf("Status = %v, want FAILED", st)
	}
}

func TestUnknownEndpointRejected(t *testing.T) {
	svc, _, _ := newService(t)
	if _, err := svc.Submit("nope", "ep-b", nil); err == nil {
		t.Fatal("Submit accepted unknown source")
	}
	if _, err := svc.Submit("ep-a", "nope", nil); err == nil {
		t.Fatal("Submit accepted unknown destination")
	}
}

func TestServiceLatencyDominatesSmallTransfers(t *testing.T) {
	n := netsim.Testbed(100) // 2s nominal latency -> 20ms
	svc := NewService(n)
	svc.RegisterEndpoint("sa", netsim.SiteMidway2, t.TempDir())
	dirA, _ := svc.EndpointDir("sa")
	svc.RegisterEndpoint("sb", netsim.SiteTheta, t.TempDir())
	os.WriteFile(filepath.Join(dirA, "tiny.obj"), []byte("x"), 0o644)

	start := time.Now()
	taskID, _ := svc.Submit("sa", "sb", []string{"tiny.obj"})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Wait(ctx, taskID); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("tiny transfer took %v, want >= 20ms of service latency", elapsed)
	}
}

func TestServiceRegistry(t *testing.T) {
	t.Cleanup(ResetServices)
	svc := NewService(netsim.Testbed(1000))
	RegisterService("transfer-svc", svc)
	got, err := LookupService("transfer-svc")
	if err != nil || got != svc {
		t.Fatalf("LookupService = %v, %v", got, err)
	}
	if _, err := LookupService("ghost"); err == nil {
		t.Fatal("LookupService found unregistered service")
	}
}

// TestWaitAllWaitsForEveryTask checks that WaitAll returns only once
// every submitted task has left the running state.
func TestWaitAllWaitsForEveryTask(t *testing.T) {
	svc, dirA, _ := newService(t)
	var ids []string
	for _, name := range []string{"a.obj", "b.obj", "c.obj"} {
		if err := os.WriteFile(filepath.Join(dirA, name), []byte(name), 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		id, err := svc.Submit("ep-a", "ep-b", []string{name})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ids = append(ids, id)
	}
	svc.WaitAll()
	for _, id := range ids {
		if st, err := svc.Status(id); err != nil || st != TaskSucceeded {
			t.Fatalf("Status(%s) after WaitAll = %v, %v", id, st, err)
		}
	}
}
