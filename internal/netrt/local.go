package netrt

import "sync"

// StartLocal brings up a full world inside one process: rank 0
// coordinates on an ephemeral loopback port and every other rank dials
// in, exactly as separate OS processes would — sockets, frames and
// termination detection all run for real. Real deployments run one
// process per rank (self-spawn or explicit launch); in-process worlds
// serve tests and single-host experiments that want the complete wire
// stack without process management.
func StartLocal(world int) ([]*Node, error) {
	return StartLocalConfig(world, Config{})
}

// StartLocalConfig is StartLocal with extra settings applied to every
// rank — recovery tests set Recover and OnRespawn. Rank, World, Coord
// and OnListen belong to the bootstrap and are overwritten.
func StartLocalConfig(world int, base Config) ([]*Node, error) {
	if world <= 1 {
		cfg := base
		cfg.Rank, cfg.World = 0, 1
		n, err := start(cfg, true)
		if err != nil {
			return nil, err
		}
		return []*Node{n}, nil
	}
	nodes := make([]*Node, world)
	errs := make([]error, world)
	addrC := make(chan string, 1)
	done0 := make(chan struct{})
	go func() {
		defer close(done0)
		cfg := base
		cfg.Rank, cfg.World, cfg.Coord = 0, world, "127.0.0.1:0"
		cfg.OnListen = func(a string) { addrC <- a }
		nodes[0], errs[0] = start(cfg, true)
	}()
	var addr string
	select {
	case addr = <-addrC:
	case <-done0:
		// Rank 0 failed before binding its listener.
		return nil, errs[0]
	}
	var wg sync.WaitGroup
	for r := 1; r < world; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := base
			cfg.Rank, cfg.World, cfg.Coord = r, world, addr
			cfg.OnListen = nil
			nodes[r], errs[r] = start(cfg, true)
		}()
	}
	wg.Wait()
	<-done0
	for _, err := range errs {
		if err != nil {
			for _, n := range nodes {
				if n != nil {
					n.Close()
				}
			}
			return nil, err
		}
	}
	return nodes, nil
}
