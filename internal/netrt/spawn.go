package netrt

import (
	"fmt"
	"os"
	"os/exec"
	"time"
)

// spawnedWorker is one self-spawned worker process. A single waiter
// goroutine, started at spawn, collects the exit status exactly once
// (exec.Cmd.Wait cannot be called twice): exited, reap-style probes and
// the final wait all observe the done latch instead.
type spawnedWorker struct {
	rank int
	cmd  *exec.Cmd
	err  error         // exit error; written before done closes
	done chan struct{} // closed when the process has been reaped
}

// checkSpawnFDBudget pre-checks RLIMIT_NOFILE before a self-spawn
// bootstrap: the coordinator holds a socket per worker (its star), its
// listener, pipes to the children, shm handshake fds and stdio — a
// 256-rank world under the classic 1024-fd default dies as a raw
// EMFILE somewhere mid-dial, long after the spawn wave started. The
// typed error names the limit to raise instead.
func checkSpawnFDBudget(world int) error {
	need := uint64(2*world + 64)
	if cur, ok := nofileLimit(); ok && cur < need {
		return &NetError{Rank: 0, Peer: -1, Op: "spawn",
			Err: fmt.Errorf("RLIMIT_NOFILE is %d but a %d-rank self-spawned world needs about %d fds on the coordinator; raise it (e.g. ulimit -n %d)",
				cur, world, need, need)}
	}
	return nil
}

// spawnOne launches one worker rank as a copy of this process's command
// line, pointing it at the coordinator address. The worker re-parses
// the same flags plus the injected -net.rank/-net.world/-net.coord
// overrides (later flag occurrences win).
func spawnOne(cfg Config, rank, world int, coordAddr string) (*spawnedWorker, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("resolve own executable: %w", err)
	}
	args := append([]string(nil), os.Args[1:]...)
	args = append(args,
		fmt.Sprintf("-net.rank=%d", rank),
		fmt.Sprintf("-net.world=%d", world),
		fmt.Sprintf("-net.coord=%s", coordAddr),
	)
	args = append(args, cfg.ExtraArgs...)
	cmd := exec.Command(exe, args...)
	// Workers share the parent's stderr so their diagnostics surface;
	// stdout stays the parent's report channel alone.
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), cfg.ExtraEnv...)
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn rank %d: %w", rank, err)
	}
	w := &spawnedWorker{rank: rank, cmd: cmd, done: make(chan struct{})}
	go func() {
		w.err = cmd.Wait()
		close(w.done)
	}()
	return w, nil
}

// spawnWorkers launches ranks 1..world-1 as copies of this process's
// command line, so a single command — `pingpong -backend=net
// -net.world=2` — runs a whole world.
func spawnWorkers(cfg Config, world int, coordAddr string) ([]*spawnedWorker, error) {
	if err := checkSpawnFDBudget(world); err != nil {
		return nil, err
	}
	var workers []*spawnedWorker
	for r := 1; r < world; r++ {
		w, err := spawnOne(cfg, r, world, coordAddr)
		if err != nil {
			for _, w := range workers {
				w.cmd.Process.Kill()
			}
			return nil, err
		}
		workers = append(workers, w)
	}
	return workers, nil
}

// wait reaps the worker, killing it if it outlives the grace period (a
// worker wedged after the parent finished must not hang the launcher).
func (w *spawnedWorker) wait() error {
	select {
	case <-w.done:
	case <-time.After(30 * time.Second):
		w.cmd.Process.Kill()
		<-w.done
		return fmt.Errorf("netrt: worker rank %d did not exit; killed", w.rank)
	}
	if w.err != nil {
		return fmt.Errorf("netrt: worker rank %d: %w", w.rank, w.err)
	}
	return nil
}

// exited reports whether the worker process has exited (and been
// reaped) within the grace period. A kill -9'd child trips the done
// latch immediately — the waiter goroutine has been running since
// spawn — so even a zero grace sees an already-dead child; the grace
// only covers a death racing the reap itself.
func (w *spawnedWorker) exited(grace time.Duration) bool {
	select {
	case <-w.done:
		return true
	case <-time.After(grace):
		return false
	}
}

// KillWorker SIGKILLs a self-spawned worker rank — the chaos tier's
// process-level fault injection. The mesh observes the death exactly as
// it would any crashed rank: sockets break, the run aborts with a typed
// NetError, and recovery (when enabled) respawns the rank.
func (n *Node) KillWorker(rank int) error {
	if n == nil {
		return fmt.Errorf("netrt: no node to kill rank %d on", rank)
	}
	for _, w := range n.children {
		if w.rank == rank {
			return w.cmd.Process.Kill()
		}
	}
	return fmt.Errorf("netrt: rank %d is not a spawned child of this process", rank)
}
