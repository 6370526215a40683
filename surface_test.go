package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceHooks are the exported names that no program file calls but
// tests need to build, drive, kill or inspect state, each with the
// reason it stays. Unwrap is here because errors.Is/As call it through
// an interface, never by name.
var surfaceHooks = map[string]string{
	"Unwrap":            "netrt.NetError: errors.Is/As reach the cause through it",
	"NaiveReference":    "fem: the serial answer the apps' oracles compare against",
	"SetDebug":          "bufpool: tests switch leak and double-free tracking on and off",
	"NoiseOnly":         "chaos: builds the jitter-only scenario of the chaos tests",
	"NumElements":       "charm.Array: inspects placement after inserts and migrations",
	"ElementsOn":        "charm.Array: inspects placement after inserts and migrations",
	"OnQuiescence":      "charm: drives a sim run to quiescence in the runtime's tests",
	"QuiescenceCounter": "charm: inspects the quiescence activity count",
	"InFlight":          "ckdirect.Handle: inspects a channel between put and callback",
	"CreateGetHandle":   "ckdirect: drives the get model that ablation-putget prints",
	"SignalReady":       "ckdirect: drives the get model that ablation-putget prints",
	"FormatSpec":        "faults: the inverse of ParseSpec for the spec fuzz round trip",
	"MustParseSpec":     "faults: builds fault plans in tests",
	"FromRows":          "linalg: builds small matrices in tests",
	"Transpose":         "linalg: the Gemm property tests' oracle",
	"BusyTotal":         "machine.PE: inspects reserved CPU time",
	"NumNodes":          "machine: inspects a platform's node layout",
	"Registered":        "machine.Region: inspects network registration",
	"PendingUnexpected": "mpisim.Rank: inspects the unexpected queue",
	"PendingPosted":     "mpisim.Rank: inspects the posted-receive queue",
	"DecodeFrame":       "netrt: decodes one frame with a fresh payload in the codec tests",
	"StartLocal":        "netrt: builds an in-process world",
	"Sever":             "netrt.Node: kills one connection to drive the peer-loss path",
	"Die":               "netrt.Node: kills a node to drive recovery",
	"DeadRanks":         "netrt.Node: inspects which peers a node saw die",
	"Aborted":           "netrt.Runtime: inspects whether a run aborted",
	"Pending":           "sim.Engine: inspects the event queue",
	"SetEnabled":        "trace.Recorder: tests switch recording off",
}

// TestExportedSurfaceHasCallers fails for every exported func or method
// declared in a program file under internal/ or pkg/ whose name no
// program file under internal/, pkg/, cmd/, examples/ or benchmark/ uses
// as an identifier (comments and strings do not count), unless
// surfaceHooks names it. internal/netrt/nettest is test support and
// counts as neither. A name only tests call is surface that nothing
// the paper measures runs: delete it with its tests, or list it as a
// hook with the reason tests need it.
func TestExportedSurfaceHasCallers(t *testing.T) {
	declared := map[string]string{} // name -> first declaring position
	used := map[string]bool{}
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "pkg", "cmd", "examples", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && path == filepath.Join("internal", "netrt", "nettest") {
				return filepath.SkipDir // test support: its calls are tests' calls
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			declares := root == "internal" || root == "pkg"
			// A func's own name is its declaration, not a use.
			decl := map[*ast.Ident]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					decl[n.Name] = true
					if _, seen := declared[n.Name.Name]; declares && n.Name.IsExported() && !seen {
						declared[n.Name.Name] = fset.Position(n.Name.Pos()).String()
					}
				case *ast.Ident:
					if !decl[n] {
						used[n.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var unused []string
	for name, pos := range declared {
		if !used[name] && surfaceHooks[name] == "" {
			unused = append(unused, pos+": "+name)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s has no caller outside tests", u)
	}
	for name := range surfaceHooks {
		if _, ok := declared[name]; !ok {
			t.Errorf("surfaceHooks lists %s, which no program file declares", name)
		} else if used[name] {
			t.Errorf("surfaceHooks lists %s, which has a caller: drop it from the list", name)
		}
	}
	if _, ok := declared["NewRTS"]; !ok {
		t.Fatal("the walk found no declarations; run from the repository root")
	}
}
