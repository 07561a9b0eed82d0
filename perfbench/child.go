package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// goldenDir holds the reference renderings of the seed-independent
// paper panels, recorded from the code the benchmark was defined at.
// The benchmark runs from the repository root.
const goldenDir = "perfbench/golden"

// compareGolden checks a rendering byte for byte against its reference.
// The benchmark only ever reads the references; TestRecordGolden writes
// them.
func compareGolden(name string, got []byte) error {
	want, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		return fmt.Errorf("golden %s: %w", name, err)
	}
	if !bytes.Equal(got, want) {
		line := 1
		for i := 0; i < len(got) && i < len(want) && got[i] == want[i]; i++ {
			if got[i] == '\n' {
				line++
			}
		}
		return fmt.Errorf("golden %s: rendering differs from the reference at line %d", name, line)
	}
	return nil
}

// childResult is what a fresh child process prints.
type childResult struct {
	// SetupS is the child's process start until its first timed op.
	SetupS float64 `json:"setup_s"`
	// ColdS is the child's first pass over its inputs.
	ColdS float64 `json:"cold_s"`
	// Pass is set by cluster-panels pass children.
	Pass *passReport `json:"pass,omitempty"`
	// PeakRSSMB is the child's peak resident set.
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// runChild starts this program again with the given role, waits for
// it, and decodes the result it prints.
func runChild(cfg *config, role string, trace bool) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if trace {
		tr = "1"
	}
	cmd := exec.Command(exe, "--role", role, "--workload", cfg.workload,
		"--seed", strconv.FormatInt(cfg.seed, 10), "--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", tr)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Env = append(os.Environ(), "PERFBENCH_LAUNCH_NS="+strconv.FormatInt(time.Now().UnixNano(), 10))
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", role, err)
	}
	var res childResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("%s child: decoding its result: %w", role, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.PeakRSSMB = float64(ru.Maxrss) / 1024
	}
	return &res, nil
}

// freshSetup sets up in a fresh child process and returns its set-up
// and cold-pass times.
func freshSetup(cfg *config) (setup, cold float64, err error) {
	r, err := runChild(cfg, "setup", false)
	if err != nil {
		return 0, 0, err
	}
	return r.SetupS, r.ColdS, nil
}

// setupChild is the "setup" role: set up like the measuring process
// would, report the times, exit. Any failed op fails the child.
func setupChild(cfg *config) error {
	var acct accounting
	var cold, setup float64
	switch cfg.workload {
	case "single-gpu-plan":
		_, c, err := setupSingle(cfg, &acct)
		if err != nil {
			return err
		}
		cold, setup = c, timeSinceStart()
	case "serve-zipf":
		st, c, err := setupServe(cfg, &acct)
		if err != nil {
			return err
		}
		cold, setup = c, timeSinceStart()
		st.close()
	default:
		return fmt.Errorf("workload %s has no setup role", cfg.workload)
	}
	if acct.failed > 0 {
		return fmt.Errorf("set-up: %d of %d ops failed: %v", acct.failed, acct.attempted, acct.failures)
	}
	return json.NewEncoder(os.Stdout).Encode(childResult{SetupS: setup, ColdS: cold})
}
