// Package pingpong implements the paper's microbenchmark (§3): round-trip
// time between two processors on different nodes, for every communication
// stack in the repository — default Charm++ messages, CkDirect channels,
// MPI two-sided, and MPI_Put under PSCW.
package pingpong

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/charm"
	"repro/internal/ckdirect"
	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/netmodel"
	"repro/internal/netrt"
	"repro/internal/sim"
)

// Mode selects the communication stack under test.
type Mode int

// Benchmark modes, matching the rows of Tables 1 and 2.
const (
	CharmMsg Mode = iota // default Charm++ messaging
	CkDirect             // CkDirect channels
	MPI                  // two-sided MPI (MVAPICH2 on Abe, IBM MPI on BG/P)
	MPIPut               // MPI_Put with post-start-complete-wait
	MPIAlt               // MPICH-VMI (Abe only)
)

// String names the mode like the paper's table rows.
func (m Mode) String() string {
	switch m {
	case CharmMsg:
		return "charm-msg"
	case CkDirect:
		return "ckdirect"
	case MPI:
		return "mpi"
	case MPIPut:
		return "mpi-put"
	case MPIAlt:
		return "mpi-alt"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// modeAliases are the names ParseMode takes beside String's.
var modeAliases = map[string]Mode{"msg": CharmMsg, "ckd": CkDirect, "mpich-vmi": MPIAlt}

// ParseMode names a stack as String does, or by one of modeAliases.
func ParseMode(name string) (Mode, error) {
	if m, ok := modeAliases[name]; ok {
		return m, nil
	}
	for m := CharmMsg; m <= MPIAlt; m++ {
		if name == m.String() {
			return m, nil
		}
	}
	return CkDirect, fmt.Errorf("unknown mode %q (charm-msg | ckdirect | mpi | mpi-put | mpi-alt)", name)
}

// Config parameterizes one pingpong run.
type Config struct {
	Platform *netmodel.Platform
	Mode     Mode
	Size     int // user payload bytes
	Iters    int // round trips to average over (paper: 1000)
	// Backend selects simulated virtual time (default), real
	// goroutine-per-PE execution, or distributed multi-process execution,
	// both with wall-clock timing. The real and net backends support the
	// Charm-runtime modes only, force real payloads, and round Size up to
	// a multiple of 8 (the sentinel word must be naturally aligned).
	Backend charm.Backend
	// Net is the started netrt node (required under the net backend).
	Net *netrt.Node
	// Virtual skips real payload allocation (timing is identical; see the
	// equivalence tests).
	Virtual bool
	// Chaos, when set, runs the benchmark under adversity. It applies to
	// the Charm++-runtime modes (CharmMsg, CkDirect); the MPI modes model
	// stacks that assume a reliable transport and ignore it. A run broken
	// by unrecovered faults returns Result.Errors instead of panicking.
	Chaos *chaos.Scenario
	// Kill, when set, fires the kill -9 chaos tier after Kill.Step round
	// trips complete. Pingpong takes no checkpoints — the recovery driver
	// simply reruns the whole benchmark, which is cheaper than saving it.
	Kill *chaos.Kill
}

// endpoint is a pingpong chare-array element. Element 0 counts the
// remaining round trips; element 1 is the reflector. Pup implements the
// uniform element-state contract (recovery reruns the benchmark from
// scratch, so the count is only read by the state-contract tests).
type endpoint struct {
	Left int
}

// Pup packs or restores the endpoint's state.
func (e *endpoint) Pup(p charm.Puper) {
	p.Int(&e.Left)
}

// Result is the measured outcome.
type Result struct {
	Config
	RTT sim.Time // average round-trip time
	// Errors holds runtime contract violations and unrecovered faults
	// (chaos runs only; fault-free runs panic instead).
	Errors []error
	// Counters is the final trace-counter snapshot (Charm modes).
	Counters map[string]int64
}

// RTTMicros returns the average round trip in microseconds, the unit of
// the paper's tables.
func (r Result) RTTMicros() float64 { return r.RTT.Micros() }

// Check reports the parameter error Run panics on: a non-positive size,
// an unknown mode, an MPI mode on a live backend, or mpi-alt on a
// platform without that personality.
func (cfg Config) Check() error {
	switch {
	case cfg.Size <= 0:
		return errors.New("pingpong: non-positive size")
	case cfg.Mode < CharmMsg || cfg.Mode > MPIAlt:
		return fmt.Errorf("pingpong: unknown mode %v", cfg.Mode)
	case cfg.Backend != charm.SimBackend && cfg.Mode != CharmMsg && cfg.Mode != CkDirect:
		return fmt.Errorf("pingpong: mode %v models a foreign MPI stack and is sim-only (use charm-msg or ckdirect with -backend=%v)", cfg.Mode, cfg.Backend)
	case cfg.Mode == MPIAlt && cfg.Platform.MPIAlt == nil:
		return fmt.Errorf("pingpong: platform %s has no alternate MPI personality", cfg.Platform.Name)
	}
	return nil
}

// Run executes the benchmark and returns the averaged round-trip time.
func Run(cfg Config) Result {
	if err := cfg.Check(); err != nil {
		panic(err.Error())
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 100
	}
	if cfg.Backend != charm.SimBackend {
		cfg.Virtual = false
		cfg.Size = (cfg.Size + 7) &^ 7
	}
	switch cfg.Mode {
	case CharmMsg:
		return runCharm(cfg)
	case CkDirect:
		return runCkDirect(cfg)
	}
	return runMPI(cfg)
}

// peers returns the two endpoint PEs, placed on different nodes, and the
// machine size needed to host them.
func peers(plat *netmodel.Platform) (a, b, pes int) {
	return 0, plat.CoresPerNode, plat.CoresPerNode + 1
}

// runCharmRuntime drives a Charm-runtime arm through the shared
// lifecycle. Its two barrier stamps are the first ping and the last
// pong, so the one timed "iteration" is the whole chain.
func runCharmRuntime(cfg Config, ckd bool, build func(d *apps.Driver) *charm.Array, start func(ctx *charm.Ctx)) Result {
	_, _, pes := peers(cfg.Platform)
	o, _ := apps.Run(apps.Spec{
		Name: "pingpong", Platform: cfg.Platform, PEs: pes,
		Backend: cfg.Backend, Net: cfg.Net, Chaos: cfg.Chaos, Kill: cfg.Kill, CkDirect: ckd,
		Iters: 1, Unit: "ends of the ping chain", Build: build, Iterate: start,
	})
	return Result{Config: cfg, RTT: o.IterTime / sim.Time(cfg.Iters), Errors: o.Errors, Counters: o.Counters}
}

func runCharm(cfg Config) Result {
	peA, peB, _ := peers(cfg.Platform)
	var (
		d              *apps.Driver
		arr            *charm.Array
		pingEP, pongEP charm.EP
		e0             = &endpoint{Left: cfg.Iters}
	)
	// Each endpoint reuses one preallocated message — the Charm++ idiom of
	// keeping a persistent message for a regular exchange. Strict
	// alternation makes this safe: a side's previous send is fully
	// delivered before it sends again, on every backend.
	pingMsg := &charm.Message{Size: cfg.Size}
	pongMsg := &charm.Message{Size: cfg.Size}
	live := cfg.Backend != charm.SimBackend
	if live {
		// The simulator prices Size and moves nothing; a live backend
		// moves what Data holds, so without a payload this arm timed a
		// bare envelope against CkDirect's cfg.Size bytes. Every rank
		// builds both patterns (SPMD), so each receiver knows what its
		// peer sent.
		pingMsg.Data = pattern(cfg.Size, 7)
		pongMsg.Data = pattern(cfg.Size, 11)
	}
	build := func(drv *apps.Driver) *charm.Array {
		d = drv
		arr = d.RTS.NewArray("pingpong", func(ix charm.Index) int {
			if ix[0] == 0 {
				return peA
			}
			return peB
		})
		arr.Insert(charm.Idx1(0), e0)
		arr.Insert(charm.Idx1(1), &endpoint{})
		pingEP = arr.EntryMethod("ping", func(ctx *charm.Ctx, msg *charm.Message) {
			if live {
				checkMsg(msg, pingMsg.Data, msg.Tag == 1)
			}
			ctx.Send(arr, charm.Idx1(0), pongEP, pongMsg)
		})
		pongEP = arr.EntryMethod("pong", func(ctx *charm.Ctx, msg *charm.Message) {
			if live {
				checkMsg(msg, pongMsg.Data, e0.Left == 1)
			}
			e0.Left--
			// The kill -9 chaos tier fires here: the pong callback is the
			// benchmark's globally ordered progress observer.
			d.Fire(cfg.Iters - e0.Left)
			if e0.Left == 0 {
				d.Mark(ctx)
				return
			}
			pingMsg.Tag = e0.Left // the ping tagged 1 is the last
			ctx.Send(arr, charm.Idx1(1), pingEP, pingMsg)
		})
		return nil
	}
	return runCharmRuntime(cfg, false, build, func(ctx *charm.Ctx) {
		d.Mark(ctx)
		pingMsg.Tag = e0.Left
		ctx.Send(arr, charm.Idx1(1), pingEP, pingMsg)
	})
}

// pattern is a size-byte message payload distinct per direction.
func pattern(size, salt int) []byte {
	b := make([]byte, size)
	fillBytes(b, salt)
	return b
}

// checkMsg asserts a received message carries its full payload: the
// length on every trip (free), the bytes on the last one — the same
// once-per-run compare the CkDirect arm does in checkPayload, so the
// timed trips of both arms carry no verification.
func checkMsg(msg *charm.Message, want []byte, last bool) {
	if len(msg.Data) != len(want) {
		panic(fmt.Sprintf("pingpong: message carries %d payload bytes, want %d", len(msg.Data), len(want)))
	}
	if last && !bytes.Equal(msg.Data, want) {
		panic("pingpong: received message payload differs from the source")
	}
}

func runCkDirect(cfg Config) Result {
	peA, peB, _ := peers(cfg.Platform)
	const oob = 0xFFF8BADF00D00001
	var (
		d                          *apps.Driver
		sendA, recvB, sendB, recvA *machine.Region
		hAB, hBA                   *ckdirect.Handle
	)
	build := func(drv *apps.Driver) *charm.Array {
		d = drv
		mgr := d.Mgr
		alloc := func(pe int) *machine.Region {
			return d.RTS.Machine().AllocRegion(pe, max(cfg.Size, 8), cfg.Virtual)
		}
		sendA, recvB = alloc(peA), alloc(peB) // A -> B channel buffers
		sendB, recvA = alloc(peB), alloc(peA) // B -> A channel buffers
		fill(sendA)
		fill(sendB)
		left := cfg.Iters
		var err error
		// B's callback: data from A arrived; re-arm and pong back.
		hAB, err = mgr.CreateHandle(peB, recvB, oob, func(ctx *charm.Ctx) {
			mgr.Ready(hAB)
			must(mgr.Put(hBA))
		})
		must(err)
		// A's callback: pong arrived; count and ping again.
		hBA, err = mgr.CreateHandle(peA, recvA, oob, func(ctx *charm.Ctx) {
			mgr.Ready(hBA)
			left--
			d.Fire(cfg.Iters - left)
			if left == 0 {
				d.Mark(ctx)
				return
			}
			must(mgr.Put(hAB))
		})
		must(err)
		must(mgr.AssocLocal(hAB, peA, sendA))
		must(mgr.AssocLocal(hBA, peB, sendB))
		return nil
	}
	res := runCharmRuntime(cfg, true, build, func(ctx *charm.Ctx) {
		d.Mark(ctx)
		must(d.Mgr.Put(hAB))
	})
	if cfg.Backend != charm.SimBackend && len(res.Errors) == 0 {
		// The bytes really moved: both receive buffers must hold the peer's
		// payload (minus the final word, which each side's callback already
		// re-armed back to the out-of-band pattern). Under net each process
		// can check only the receive buffer it hosts.
		if d.RTS.HostsPE(peB) {
			checkPayload(recvB, sendA)
		}
		if d.RTS.HostsPE(peA) {
			checkPayload(recvA, sendB)
		}
	}
	return res
}

// checkPayload asserts a received CkDirect payload matches the source,
// excluding the re-armed sentinel word.
func checkPayload(recv, send *machine.Region) {
	got, want := recv.Bytes(), send.Bytes()
	for i := 0; i < len(got)-8; i++ {
		if got[i] != want[i] {
			panic(fmt.Sprintf("pingpong: received payload differs from source at byte %d: %#x != %#x", i, got[i], want[i]))
		}
	}
}

func runMPI(cfg Config) Result {
	eng := sim.NewEngine()
	rkA, rkB, pes := peers(cfg.Platform)
	mach, net := cfg.Platform.BuildMachine(eng, pes)
	table := cfg.Platform.MPI
	if cfg.Mode == MPIAlt {
		table = cfg.Platform.MPIAlt
	}
	w := mpisim.NewWorld(eng, mach, net, mpisim.Config{
		Table:    table,
		PutTable: cfg.Platform.MPIPut,
	})

	var start, end sim.Time
	left := cfg.Iters
	if cfg.Mode == MPIPut {
		// One-sided pingpong: each direction is a PSCW-synchronized put
		// into the peer's window.
		bufA := mach.AllocRegion(rkA, cfg.Size, cfg.Virtual)
		bufB := mach.AllocRegion(rkB, cfg.Size, cfg.Virtual)
		regions := make([]*machine.Region, pes)
		regions[rkA], regions[rkB] = bufA, bufB
		win := w.NewWin(regions)

		var iter func()
		iter = func() {
			// Ping: B exposes, A puts.
			must(win.Post(rkB, []int{rkA}))
			must(win.Wait(rkB, func() {
				// Pong: A exposes, B puts back.
				must(win.Post(rkA, []int{rkB}))
				must(win.Wait(rkA, func() {
					left--
					if left == 0 {
						end = eng.Now()
						return
					}
					iter()
				}))
				must(win.Start(rkB, []int{rkA}))
				must(win.Put(rkB, rkA, cfg.Size, nil))
				must(win.Complete(rkB, nil))
			}))
			must(win.Start(rkA, []int{rkB}))
			must(win.Put(rkA, rkB, cfg.Size, nil))
			must(win.Complete(rkA, nil))
		}
		eng.Schedule(0, func() {
			start = eng.Now()
			iter()
		})
	} else {
		var ping, pong func()
		ping = func() {
			w.Rank(rkB).Recv(rkA, 0, func(m *mpisim.Msg) {
				w.Rank(rkB).Send(rkA, 1, &mpisim.Msg{Size: cfg.Size})
			})
		}
		pong = func() {
			w.Rank(rkA).Recv(rkB, 1, func(m *mpisim.Msg) {
				left--
				if left == 0 {
					end = eng.Now()
					return
				}
				ping()
				pong()
				w.Rank(rkA).Send(rkB, 0, &mpisim.Msg{Size: cfg.Size})
			})
		}
		eng.Schedule(0, func() {
			start = eng.Now()
			ping()
			pong()
			w.Rank(rkA).Send(rkB, 0, &mpisim.Msg{Size: cfg.Size})
		})
	}
	eng.Run()
	if end <= start {
		panic(fmt.Sprintf("pingpong: run did not complete (%v..%v, mode %v)", start, end, cfg.Mode))
	}
	return Result{Config: cfg, RTT: (end - start) / sim.Time(cfg.Iters)}
}

func fill(r *machine.Region) { fillBytes(r.Bytes(), 7) }

func fillBytes(b []byte, salt int) {
	for i := range b {
		b[i] = byte(i*31 + salt)
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
