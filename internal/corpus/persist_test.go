package corpus

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"schedcomp/internal/dag"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Seed: 12, GraphsPerSet: 1, MinNodes: 24, MaxNodes: 30}
	c, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumGraphs() != c.NumGraphs() || len(back.Sets) != len(c.Sets) {
		t.Fatalf("shape mismatch: %d/%d graphs, %d/%d sets",
			back.NumGraphs(), c.NumGraphs(), len(back.Sets), len(c.Sets))
	}
	for si := range c.Sets {
		if back.Sets[si].Class != c.Sets[si].Class {
			t.Fatalf("set %d class mismatch: %v vs %v", si, back.Sets[si].Class, c.Sets[si].Class)
		}
		ga, gb := c.Sets[si].Graphs[0], back.Sets[si].Graphs[0]
		if ga.NumNodes() != gb.NumNodes() || ga.NumEdges() != gb.NumEdges() {
			t.Fatalf("set %d graph mismatch", si)
		}
		for v := 0; v < ga.NumNodes(); v++ {
			if ga.Weight(dag.NodeID(v)) != gb.Weight(dag.NodeID(v)) {
				t.Fatalf("set %d weights differ", si)
			}
		}
	}
}

func TestLoadMissingDir(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("expected error for missing corpus")
	}
}

func TestLoadRejectsEscapingPaths(t *testing.T) {
	// "." and ".." are their own base names, so a base-name check alone
	// lets them through to a confusing directory read error.
	for _, name := range []string{"../../etc/passwd", "sub/g.json", "..", ".", ""} {
		dir := t.TempDir()
		manifest := `{"spec":{"Seed":1,"GraphsPerSet":1,"MinNodes":4,"MaxNodes":8,"Workers":0},` +
			`"sets":[{"band_lo":0,"band_hi":0.08,"anchor":2,"wmin":20,"wmax":100,` +
			`"graphs":["` + name + `"]}]}`
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(manifest), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "suspicious path") {
			t.Errorf("manifest entry %q: err = %v, want a suspicious path error", name, err)
		}
	}
}

func TestLoadRejectsCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{{{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("expected error for corrupt manifest")
	}
}

func TestLoadRejectsMisclassifiedGraph(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Seed: 13, GraphsPerSet: 1, MinNodes: 24, MaxNodes: 30}
	c, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Corrupt one graph file: replace with a graph of absurd
	// granularity for its class.
	g := dag.New("bogus")
	a := g.AddNode(1000000)
	b := g.AddNode(1000000)
	g.MustAddEdge(a, b, 1)
	f, err := os.Create(filepath.Join(dir, "set00-g000.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Load(dir); err == nil {
		t.Fatal("expected class-membership error")
	}
}
