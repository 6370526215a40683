package apps

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/charm"
	"repro/internal/netmodel"
)

// parseExit parses args on a fresh launcher and returns the launcher,
// the exit code a refusal took (0 if none) and what it printed.
func parseExit(t *testing.T, feat Feature, args ...string) (l *Launcher, code int, out string) {
	t.Helper()
	var buf bytes.Buffer
	fs := flag.NewFlagSet("app", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Int("pes", 4, "processing elements")
	l = newLauncher(fs, "app", feat)
	l.exit = func(c int) { panic(c) }
	l.stderr = &buf
	defer func() {
		if r := recover(); r != nil {
			code = r.(int)
		}
		out = buf.String()
	}()
	l.mustParse(args)
	return l, 0, ""
}

// TestLauncherRefusals is the shared command line's refusal table: each
// combination that cannot run is one line on stderr and exit status 2.
func TestLauncherRefusals(t *testing.T) {
	all := Net | Ckpt | Kill | Compare | Modes | Trace
	cases := []struct {
		name string
		feat Feature
		args []string
		want string
	}{
		{"faults off sim", all, []string{"-backend=real", "-faults", "drop:rate=0.01"}, "sim-only"},
		{"watchdog off sim", all, []string{"-backend=net", "-watchdog=report"}, "sim-only"},
		{"ckpt.every without ckpt.dir", all, []string{"-backend=net", "-ckpt.every=2"}, "go together"},
		{"ckpt off net", all, []string{"-backend=real", "-ckpt.every=2", "-ckpt.dir=d"}, "need -backend=net"},
		{"kill off net", all, []string{"-chaos.kill=1@3"}, "need -backend=net"},
		{"compare with recovery", all, []string{"-backend=net", "-chaos.kill=1@3", "-compare"}, "cannot combine"},
		{"net in a one-process binary", Modes, []string{"-backend=net"}, "runs in one process"},
		{"bad kill spec", all, []string{"-backend=net", "-chaos.kill=0@3"}, "rank 0"},
		{"fewer PEs than ranks", all, []string{"-backend=net", "-net.world=5"}, "fewer than the 5 ranks"},
		{"fewer PEs than listed peers", Net, []string{"-backend=net", "-net.rank=0", "-pes=1", "-net.peers=:1,:2"}, "fewer than the 2 ranks"},
		{"bad mode", all, []string{"-mode=rdma"}, "unknown mode"},
		{"bad platform", all, []string{"-platform=cray"}, "unknown platform"},
		{"unregistered flag", Net, []string{"-ckpt.every=2"}, "not defined"},
		{"trace on net", all, []string{"-backend=net", "-trace=t.json"}, "one process's run"},
		{"trace with compare", all, []string{"-compare", "-trace=t.json"}, "cannot combine with -compare"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, code, out := parseExit(t, tc.feat, tc.args...)
			if code != 2 || !strings.HasPrefix(out, "app: ") || !strings.Contains(out, tc.want) {
				t.Fatalf("exit %d, stderr %q; want 2 and a line containing %q", code, out, tc.want)
			}
		})
	}
}

// TestLauncherAccepts pins what a valid recovery command line yields:
// the checkpoint options, the kill, and a node config that keeps its
// listener open for Rejoin.
func TestLauncherAccepts(t *testing.T) {
	l, code, out := parseExit(t, Net|Ckpt|Kill|Modes,
		"-backend=net", "-mode=msg", "-platform=bgp", "-ckpt.every=2", "-ckpt.dir=d", "-chaos.kill=1@3")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, out)
	}
	if l.Backend != charm.NetBackend || l.Mode != Msg || l.Platform != netmodel.SurveyorBGP ||
		l.Ckpt == nil || l.Ckpt.Every != 2 || l.Kill == nil || l.Kill.Step != 3 || !l.net.Recover {
		t.Fatalf("parsed %+v (ckpt %+v, kill %+v, recover %v)", l, l.Ckpt, l.Kill, l.net.Recover)
	}
	if l, _, _ := parseExit(t, Net|Modes); l.Mode != Ckd || l.Chaos != nil || l.net.Recover {
		t.Fatalf("defaults: mode %v, chaos %v, recover %v", l.Mode, l.Chaos, l.net.Recover)
	}
}

// TestWriteTrace pins what -trace leaves behind: on sim a timeline is
// attached and written as Chrome trace-event JSON with a utilization
// summary; on real no timeline is attached and the file holds the
// counters as a JSON object; without -trace nothing is written.
func TestWriteTrace(t *testing.T) {
	dir := t.TempDir()
	if l, _, _ := parseExit(t, Trace); l.Timeline != nil {
		t.Fatal("a timeline without -trace")
	}
	sim := filepath.Join(dir, "sim.json")
	l, code, out := parseExit(t, Trace, "-trace="+sim)
	if code != 0 || l.Timeline == nil {
		t.Fatalf("sim: exit %d (%s), timeline %v", code, out, l.Timeline)
	}
	l.Timeline.AddSpan(1, "entry", "dispatch", 0, 10)
	var stdout bytes.Buffer
	l.stdout = &stdout
	l.WriteTrace(nil)
	var doc struct{ TraceEvents []map[string]any }
	if b, err := os.ReadFile(sim); err != nil || json.Unmarshal(b, &doc) != nil || len(doc.TraceEvents) != 1 {
		t.Fatalf("sim trace %q: %v", b, err)
	}
	if !strings.Contains(stdout.String(), "wrote 1 spans") || !strings.Contains(stdout.String(), "PE   3     0.0%") {
		t.Fatalf("sim summary:\n%s", stdout.String())
	}

	live := filepath.Join(dir, "real.json")
	l, code, out = parseExit(t, Trace, "-backend=real", "-trace="+live)
	if code != 0 || l.Timeline != nil {
		t.Fatalf("real: exit %d (%s), timeline %v", code, out, l.Timeline)
	}
	l.stdout = io.Discard
	l.WriteTrace(map[string]int64{"ckd.puts": 7, "mem.allocs": 3})
	var counters map[string]int64
	if b, err := os.ReadFile(live); err != nil || json.Unmarshal(b, &counters) != nil || counters["ckd.puts"] != 7 {
		t.Fatalf("real trace %q: %v", b, err)
	}
}
