package charm

import (
	"fmt"
	"sync"

	"repro/internal/ckpt"
)

// CkptOptions configures coordinated checkpointing for an app run.
type CkptOptions struct {
	// Dir is the checkpoint directory, shared by every rank (the net
	// backend runs all ranks on one host).
	Dir string
	// Every checkpoints after every Every-th reduction barrier
	// (0 disables).
	Every int
}

// Enabled reports whether checkpointing is on.
func (o *CkptOptions) Enabled() bool { return o != nil && o.Every > 0 && o.Dir != "" }

// RegionHooks is the seam to the CkDirect manager: verify all one-sided
// traffic is drained at the cut, and pup the registered receive-buffer
// contents. Declared here (not in ckdirect) so charm does not import
// ckdirect; *ckdirect.Manager implements it.
type RegionHooks interface {
	Quiescent() error
	PupRegions(p Puper) error
}

// keepSnapshots is how many snapshot generations each rank retains: the
// current one plus the previous, so a crash between a new snapshot and
// its commit record leaves the committed generation restorable.
const keepSnapshots = 2

// Checkpointer drives coordinated checkpoints for one run. The protocol
// rides the app's reduction barriers, so it needs no new wire frames:
//
//  1. The root reduction client — the one sequencer every app runs
//     under, installed by apps.Run — at a step where Due(step) is
//     true, broadcasts the checkpoint entry method instead of the next
//     iterate.
//  2. Every element's checkpoint handler calls ElementSave(step) and
//     contributes to an extra barrier round. The LAST local element to
//     arrive — by which point every other local element has already
//     saved and gone idle, with the collector mutex providing the
//     happens-before — walks the arrays in registration order and the
//     elements in deterministic per-PE insertion order, pups each, pups
//     the registered-buffer contents, and writes this rank's snapshot
//     file.
//  3. The extra barrier completing at the root proves (by the
//     contribution happens-before chain) that every rank's snapshot is
//     on disk; the root writes the commit record and resumes iterating.
//
// The cut is consistent because a barrier is a quiesced boundary: every
// put of the step has been consumed, every channel re-armed (Quiescent
// verifies it), and the next step's puts cannot issue until the root
// broadcasts the next iterate — which it withholds until the commit.
type Checkpointer struct {
	rts   *RTS
	dir   string
	every int
	rank  int
	world int

	arrays []*Array
	hooks  RegionHooks

	mu       sync.Mutex
	saveStep int // step currently being collected
	saved    int // local elements that reached ElementSave for saveStep

	// Root-side barrier state: which step's checkpoint barrier is in
	// flight. Only the root reduction client touches it.
	pending     bool
	pendingStep int
}

// NewCheckpointer builds the checkpoint driver for one run.
func NewCheckpointer(rts *RTS, opts *CkptOptions) *Checkpointer {
	rank, world := 0, 1
	if n := rts.opts.Net; n != nil {
		rank, world = n.Rank(), n.World()
	}
	return &Checkpointer{
		rts:      rts,
		dir:      opts.Dir,
		every:    opts.Every,
		rank:     rank,
		world:    world,
		saveStep: -1,
	}
}

// Attach registers the arrays whose elements checkpoint. Call after all
// inserts; registration order must be SPMD-identical (it defines the
// snapshot layout).
func (ck *Checkpointer) Attach(arrays ...*Array) {
	ck.arrays = append(ck.arrays, arrays...)
}

// need counts the local elements a checkpoint barrier waits for. It is
// computed live, not cached at Attach: migration changes which elements
// a rank hosts mid-run.
func (ck *Checkpointer) need() int {
	n := 0
	for _, a := range ck.arrays {
		n += a.hostedElements()
	}
	return n
}

// SetRegionHooks installs the CkDirect drain/region seam (nil when the
// run has no CkDirect channels).
func (ck *Checkpointer) SetRegionHooks(h RegionHooks) { ck.hooks = h }

// Due reports whether a checkpoint should be cut after completed
// barrier step (1-based).
func (ck *Checkpointer) Due(step int) bool {
	return ck.every > 0 && step > 0 && step%ck.every == 0
}

// Begin marks the root's checkpoint barrier for step as in flight; the
// root client broadcasts the app's checkpoint EP right after.
func (ck *Checkpointer) Begin(step int) {
	ck.pending = true
	ck.pendingStep = step
}

// InCheckpoint reports whether the barrier that just completed at the
// root was a checkpoint barrier (true) or an ordinary iterate barrier.
func (ck *Checkpointer) InCheckpoint() bool { return ck.pending }

// ElementSave records one local element reaching the checkpoint cut for
// step. The last local element to arrive performs this rank's snapshot;
// every earlier element has already saved its contribution flag and
// gone idle, so walking all local state from this goroutine is race-
// free (the collector mutex carries the happens-before). Errors surface
// through the runtime's error channel — a failed snapshot must not
// silently commit.
func (ck *Checkpointer) ElementSave(step int) {
	ck.mu.Lock()
	if ck.saveStep != step {
		ck.saveStep = step
		ck.saved = 0
	}
	ck.saved++
	last := ck.saved == ck.need()
	ck.mu.Unlock()
	if !last {
		return
	}
	if err := ck.snapshot(step); err != nil {
		ck.rts.ReportError(fmt.Errorf("checkpoint step %d: %w", step, err))
	}
}

// snapshot packs this rank's cut — element state in deterministic
// order, then registered-buffer contents — and persists it.
func (ck *Checkpointer) snapshot(step int) error {
	if ck.hooks != nil {
		if err := ck.hooks.Quiescent(); err != nil {
			return err
		}
	}
	p := &Packer{}
	if err := ck.pupAll(p); err != nil {
		return err
	}
	return ckpt.WriteSnapshot(ck.dir, &ckpt.Snapshot{
		Rank:    ck.rank,
		World:   ck.world,
		Step:    step,
		Payload: p.Buf,
	}, keepSnapshots)
}

// pupAll walks the checkpointed state in its canonical order.
func (ck *Checkpointer) pupAll(p Puper) error {
	n := len(ck.arrays)
	p.Int(&n)
	if n != len(ck.arrays) {
		return fmt.Errorf("checkpoint has %d arrays, this setup has %d", n, len(ck.arrays))
	}
	for _, a := range ck.arrays {
		c := a.hostedPupables()
		p.Int(&c)
		if c != a.hostedPupables() {
			return fmt.Errorf("checkpoint has %d elements of %s, this rank hosts %d", c, a.name, a.hostedPupables())
		}
		if err := a.pupHosted(p); err != nil {
			return err
		}
	}
	if ck.hooks != nil {
		if err := ck.hooks.PupRegions(p); err != nil {
			return err
		}
	}
	return nil
}

// Commit finishes the checkpoint whose barrier just completed at the
// root: every rank's snapshot is durable (the barrier proved it), so
// the commit record may name the step.
func (ck *Checkpointer) Commit() (int, error) {
	step := ck.pendingStep
	ck.pending = false
	if ck.rank != 0 {
		return step, nil
	}
	return step, ckpt.WriteCommit(ck.dir, ck.world, step)
}

// Restore rolls this rank back to the newest committed checkpoint.
// Call after the run's SPMD setup is fully rebuilt (arrays inserted,
// channels registered, Attach/SetRegionHooks done) and before the run
// starts: element state and registered-buffer bytes are overwritten in
// place. It returns the restored step, or 0 when no checkpoint exists
// (fresh start).
func (ck *Checkpointer) Restore() (int, error) {
	step, ok, err := ckpt.ReadCommit(ck.dir, ck.world)
	if err != nil || !ok {
		return 0, err
	}
	if ck.need() == 0 && !ckpt.HasSnapshot(ck.dir, ck.rank, step) {
		// A rank hosting no elements never writes a snapshot — there is
		// nothing to restore either.
		return step, nil
	}
	s, err := ckpt.ReadSnapshot(ck.dir, ck.rank, step)
	if err != nil {
		return 0, err
	}
	u := &Unpacker{Buf: s.Payload}
	if err := ck.pupAll(u); err != nil {
		return 0, err
	}
	if rest := u.Rest(); rest != 0 {
		return 0, fmt.Errorf("checkpoint step %d: %d trailing bytes", step, rest)
	}
	return step, nil
}
