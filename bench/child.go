package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"syscall"
	"time"
)

// childGOMAXPROCS caps every child at the sandbox's two cores, so that the
// busy threads never outnumber them while the parent only waits.
const childGOMAXPROCS = "2"

// childTimeout stops a hung child, and reports it, before the driver's
// 180 s limit on a whole run would kill the benchmark and orphan the child.
// The slowest child takes under 10 s.
const childTimeout = 120 * time.Second

// Run is one finished child process: what it cost the host and what it
// printed.
type Run struct {
	Argv []string `json:"argv"`
	// Wall is child start to exit.
	WallS float64 `json:"wall_s"`
	UserS float64 `json:"user_s"`
	SysS  float64 `json:"sys_s"`
	// RSSMiB is the child's peak resident set (ru_maxrss).
	RSSMiB float64 `json:"rss_mib"`
	// FirstStatusS and LastStatusS are when the first and last progress
	// line arrived, in seconds after the start; -1 when none did.
	FirstStatusS float64 `json:"first_status_s"`
	LastStatusS  float64 `json:"last_status_s"`
	Exit         int     `json:"exit"`
	// StdoutSHA identifies the stdout bytes: every rep of a workload must
	// print the same ones.
	StdoutSHA string `json:"stdout_sha256"`

	stdout []byte
	stderr []byte
	start  time.Time
	dir    string
	span   int // this run's host span
}

// statusClock timestamps the progress lines of one output stream. Lines end
// in \n or, for the CLIs' in-place counters, \r.
type statusClock struct {
	re          *regexp.Regexp
	start       time.Time
	first, last time.Duration
	seen        bool
	partial     []byte
}

func (s *statusClock) Write(p []byte) (int, error) {
	now := time.Since(s.start)
	s.partial = append(s.partial, p...)
	for {
		i := bytes.IndexAny(s.partial, "\r\n")
		if i < 0 {
			break
		}
		if s.re.Match(s.partial[:i]) {
			if !s.seen {
				s.first, s.seen = now, true
			}
			s.last = now
		}
		s.partial = s.partial[i+1:]
	}
	return len(p), nil
}

// runner starts children from binDir, each in its own fresh directory under
// workDir so the files the CLIs drop (-json, -trace, BENCH_small.json)
// never collide.
type runner struct {
	binDir  string
	workDir string
	n       int
}

// start runs one child to completion. The returned run's dir holds whatever
// files the child wrote, until the benchmark removes workDir on its way out.
func (rn *runner) start(c child, status *regexp.Regexp, statusOnStdout bool) (*Run, error) {
	rn.n++
	dir := filepath.Join(rn.workDir, fmt.Sprintf("child%03d", rn.n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(rn.binDir, c.bin), c.args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+childGOMAXPROCS)
	var stdout, stderr bytes.Buffer
	clock := &statusClock{re: status}
	outW, errW := io.Writer(&stdout), io.Writer(&stderr)
	if status != nil {
		if statusOnStdout {
			outW = io.MultiWriter(&stdout, clock)
		} else {
			errW = io.MultiWriter(&stderr, clock)
		}
	}
	outR, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	errR, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	r := &Run{Argv: append([]string{c.bin}, c.args...), dir: dir, FirstStatusS: -1, LastStatusS: -1}
	r.start = time.Now()
	clock.start = r.start
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", c.bin, err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _, _ = io.Copy(outW, outR) }() // a read error ends the copy; the exit status reports the child
	go func() { defer wg.Done(); _, _ = io.Copy(errW, errR) }()
	wg.Wait()
	werr := cmd.Wait()
	r.WallS = time.Since(r.start).Seconds()
	var ee *exec.ExitError
	if werr != nil && !errors.As(werr, &ee) {
		return nil, fmt.Errorf("wait %s: %w", c.bin, werr)
	}
	ps := cmd.ProcessState
	if ctx.Err() != nil {
		return nil, fmt.Errorf("%s killed after %v", c.bin, childTimeout)
	}
	r.Exit = ps.ExitCode()
	r.UserS, r.SysS = ps.UserTime().Seconds(), ps.SystemTime().Seconds()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		r.RSSMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if clock.seen {
		r.FirstStatusS, r.LastStatusS = clock.first.Seconds(), clock.last.Seconds()
	}
	r.stdout, r.stderr = stdout.Bytes(), stderr.Bytes()
	sum := sha256.Sum256(r.stdout)
	r.StdoutSHA = hex.EncodeToString(sum[:])
	return r, nil
}

// path names a file the child wrote in its directory.
func (r *Run) path(name string) string { return filepath.Join(r.dir, name) }

// spin times a fixed integer loop. It is taken before every rep so a reader
// of a results file can tell a slower machine from a slower program.
func spin() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

var spinSink uint64
