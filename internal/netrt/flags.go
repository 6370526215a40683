package netrt

import (
	"flag"
	"strconv"
	"strings"
)

// RegisterFlags binds the standard -net.* flags on fs and returns the
// Config they populate. Call before fs.Parse; pass the filled Config to
// Start once flags are parsed.
//
// Every world bootstraps the same way — workers join rank 0's
// coordinator star, worker-to-worker edges open at first contact — and
// the first four flags only say where the ranks and addresses come from:
//
//	-net.rank   this process's rank (-1 = self-spawn the world)
//	-net.world  number of processes
//	-net.coord  coordinator address (rank 0 listens, workers dial)
//	-net.peers  static launch: comma-separated listen addresses by rank
//	            (rank r listens on entry r; entry 0 is the coordinator)
//	-net.eager  eager/rendezvous threshold in bytes
//	-net.shm    shared-memory transport for co-located ranks (default on)
//	-net.shmring   per-direction shm ring bytes (rounded up to a power of two)
//	-net.shmarena  per-direction shm put-arena bytes
//	-net.seed   base seed for the node's deterministic RNG streams
//	-net.termfanout  termination-tree fanout (default 8)
func RegisterFlags(fs *flag.FlagSet) *Config {
	cfg := &Config{}
	fs.IntVar(&cfg.Rank, "net.rank", -1, "net backend: this process's rank (-1 = self-spawn workers)")
	fs.IntVar(&cfg.World, "net.world", 1, "net backend: number of processes")
	fs.Func("net.peers", "net backend: comma-separated listen addresses, one per rank (static launch; the first is the coordinator)", func(s string) error {
		cfg.Peers = nil
		for _, a := range strings.Split(s, ",") {
			if a = strings.TrimSpace(a); a != "" {
				cfg.Peers = append(cfg.Peers, a)
			}
		}
		return nil
	})
	fs.StringVar(&cfg.Coord, "net.coord", "", "net backend: coordinator address (rank 0 listens, workers dial in)")
	fs.IntVar(&cfg.EagerMax, "net.eager", DefaultEagerMax, "net backend: eager/rendezvous threshold in bytes")
	// Config's zero value enables shm, so the flag inverts into ShmOff.
	fs.BoolFunc("net.shm", "net backend: shared-memory transport between co-located ranks (default true)", func(s string) error {
		v, err := strconv.ParseBool(s)
		cfg.ShmOff = !v
		return err
	})
	fs.IntVar(&cfg.ShmRingBytes, "net.shmring", 0, "net backend: per-direction shm ring bytes (0 = 1 MiB default)")
	fs.IntVar(&cfg.ShmArenaBytes, "net.shmarena", 0, "net backend: per-direction shm put-arena bytes (0 = 4 MiB default)")
	fs.Uint64Var(&cfg.Seed, "net.seed", 0, "net backend: base RNG seed for backoff jitter and shm tokens (0 = built-in)")
	fs.IntVar(&cfg.TermFanout, "net.termfanout", DefaultTermFanout, "net backend: termination-tree fanout (children per interior rank)")
	return cfg
}
