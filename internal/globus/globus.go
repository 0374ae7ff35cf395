// Package globus simulates the Globus transfer service: a hosted
// software-as-a-service that moves files between registered endpoints with
// asynchronous, pollable transfer tasks (paper §4.2.1).
//
// The simulation reproduces the service's performance envelope rather than
// its implementation: every task pays a fixed service latency (job
// submission, endpoint polling, the SaaS control plane — seconds in
// practice, which is why GlobusStore loses to the baseline at small sizes
// in Figure 5) and then streams files at high bulk bandwidth (why it wins
// for very large transfers). Files are directories on the local disk, one
// per endpoint.
package globus

import (
	"context"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"proxystore/internal/connector"
	"proxystore/internal/netsim"
)

// TaskStatus is a transfer task's lifecycle state.
type TaskStatus int

// Task states.
const (
	TaskActive TaskStatus = iota
	TaskSucceeded
	TaskFailed
)

func (s TaskStatus) String() string {
	switch s {
	case TaskActive:
		return "ACTIVE"
	case TaskSucceeded:
		return "SUCCEEDED"
	case TaskFailed:
		return "FAILED"
	default:
		return fmt.Sprintf("TaskStatus(%d)", int(s))
	}
}

// Endpoint is a registered Globus endpoint: a directory at a site.
type Endpoint struct {
	// UUID identifies the endpoint.
	UUID string
	// Site is the endpoint's netsim site.
	Site string
	// Dir is the endpoint's root directory on the local file system.
	Dir string
}

// Task is an asynchronous transfer job.
type Task struct {
	ID     string
	Src    string // endpoint UUID
	Dst    string
	Files  []string
	Bytes  int64
	status TaskStatus
	err    error
	done   chan struct{}
}

// Service is a simulated Globus transfer service.
//
// A Service is safe for concurrent use.
type Service struct {
	net *netsim.Network

	mu        sync.RWMutex
	endpoints map[string]Endpoint
	tasks     map[string]*Task
}

// serviceLatency is the fixed nominal control-plane overhead per task,
// scaled by the network's time scale.
const serviceLatency = 2 * time.Second

// NewService creates a transfer service over the given network model.
func NewService(n *netsim.Network) *Service {
	return &Service{
		net:       n,
		endpoints: make(map[string]Endpoint),
		tasks:     make(map[string]*Task),
	}
}

// RegisterEndpoint adds an endpoint, creating its directory.
func (s *Service) RegisterEndpoint(uuid, site, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("globus: creating endpoint directory: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.endpoints[uuid] = Endpoint{UUID: uuid, Site: site, Dir: dir}
	return nil
}

// EndpointDir returns the directory of a registered endpoint.
func (s *Service) EndpointDir(uuid string) (string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ep, ok := s.endpoints[uuid]
	if !ok {
		return "", fmt.Errorf("globus: unknown endpoint %q", uuid)
	}
	return ep.Dir, nil
}

// Submit starts an asynchronous transfer of the named files (paths relative
// to the endpoint roots) from src to dst, returning the task ID.
func (s *Service) Submit(src, dst string, files []string) (string, error) {
	s.mu.RLock()
	se, okS := s.endpoints[src]
	de, okD := s.endpoints[dst]
	s.mu.RUnlock()
	if !okS {
		return "", fmt.Errorf("globus: unknown source endpoint %q", src)
	}
	if !okD {
		return "", fmt.Errorf("globus: unknown destination endpoint %q", dst)
	}

	task := &Task{
		ID:    connector.NewID(),
		Src:   src,
		Dst:   dst,
		Files: append([]string(nil), files...),
		done:  make(chan struct{}),
	}
	s.mu.Lock()
	s.tasks[task.ID] = task
	s.mu.Unlock()

	go s.run(task, se, de)
	return task.ID, nil
}

func (s *Service) run(task *Task, src, dst Endpoint) {
	defer close(task.done)

	var total int64
	for _, f := range task.Files {
		if fi, err := os.Stat(filepath.Join(src.Dir, f)); err == nil {
			total += fi.Size()
		}
	}
	task.Bytes = total

	// Control-plane overhead, scaled like every other delay.
	scale := 1.0
	if s.net != nil {
		scale = s.net.Scale()
	}
	time.Sleep(time.Duration(float64(serviceLatency) / scale))

	// Bulk data movement at the link's full TCP bandwidth (GridFTP uses
	// parallel streams; model as the full link rate).
	if s.net != nil {
		if err := s.net.Delay(context.Background(), src.Site, dst.Site, int(total)); err != nil {
			s.finish(task, TaskFailed, err)
			return
		}
	}

	for _, f := range task.Files {
		if err := copyFile(filepath.Join(src.Dir, f), filepath.Join(dst.Dir, f)); err != nil {
			s.finish(task, TaskFailed, err)
			return
		}
	}
	s.finish(task, TaskSucceeded, nil)
}

func (s *Service) finish(task *Task, st TaskStatus, err error) {
	s.mu.Lock()
	task.status = st
	task.err = err
	s.mu.Unlock()
}

// Status returns a task's current state.
func (s *Service) Status(taskID string) (TaskStatus, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tasks[taskID]
	if !ok {
		return TaskFailed, fmt.Errorf("globus: unknown task %q", taskID)
	}
	return t.status, nil
}

// WaitAll blocks until every task submitted so far has finished, so a
// caller can remove the endpoints' directories with no transfer still
// writing into them.
func (s *Service) WaitAll() {
	s.mu.RLock()
	tasks := slices.Collect(maps.Values(s.tasks))
	s.mu.RUnlock()
	for _, t := range tasks {
		<-t.done
	}
}

// Wait blocks until the task completes, returning the task's error if it
// failed — the behaviour proxies rely on ("a proxy will wait for the
// transfer task to succeed before resolving itself").
func (s *Service) Wait(ctx context.Context, taskID string) error {
	s.mu.RLock()
	t, ok := s.tasks[taskID]
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("globus: unknown task %q", taskID)
	}
	select {
	case <-t.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t.status == TaskFailed {
		return fmt.Errorf("globus: transfer task %s failed: %w", taskID, t.err)
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return fmt.Errorf("globus: opening source file: %w", err)
	}
	defer in.Close()
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("globus: creating destination directory: %w", err)
	}
	out, err := os.CreateTemp(filepath.Dir(dst), ".globus-*")
	if err != nil {
		return fmt.Errorf("globus: creating destination file: %w", err)
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		os.Remove(out.Name())
		return fmt.Errorf("globus: copying file: %w", err)
	}
	if err := out.Close(); err != nil {
		os.Remove(out.Name())
		return err
	}
	return os.Rename(out.Name(), dst)
}

// --- process-global service registry ---------------------------------------

var (
	svcMu    sync.Mutex
	services = make(map[string]*Service)
)

// RegisterService installs a named service so connector configs can
// reference it across (simulated) processes.
func RegisterService(name string, s *Service) {
	svcMu.Lock()
	defer svcMu.Unlock()
	services[name] = s
}

// LookupService finds a registered service.
func LookupService(name string) (*Service, error) {
	svcMu.Lock()
	defer svcMu.Unlock()
	s, ok := services[name]
	if !ok {
		return nil, fmt.Errorf("globus: no service registered as %q", name)
	}
	return s, nil
}

// ResetServices forgets all registered services. For tests.
func ResetServices() {
	svcMu.Lock()
	defer svcMu.Unlock()
	services = make(map[string]*Service)
}
