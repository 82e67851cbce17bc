package corpus

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"schedcomp/internal/dag"
	"schedcomp/internal/gen"
)

// Persistence: a corpus can be saved as a directory of graph JSON
// files plus a manifest, so an expensive population can be reused (or
// shipped to other tools) instead of regenerated.

// manifest is the on-disk description of a saved corpus.
type manifest struct {
	Spec Spec          `json:"spec"`
	Sets []manifestSet `json:"sets"`
}

type manifestSet struct {
	BandLo float64  `json:"band_lo"`
	BandHi float64  `json:"band_hi"`
	Anchor int      `json:"anchor"`
	WMin   int64    `json:"wmin"`
	WMax   int64    `json:"wmax"`
	Graphs []string `json:"graphs"`
}

const manifestName = "corpus.json"

// Save writes the corpus under dir: one JSON file per graph plus a
// manifest. dir is created if needed.
func (c *Corpus) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	m := manifest{Spec: c.Spec}
	for si, set := range c.Sets {
		ms := manifestSet{
			BandLo: set.Class.Band.Lo,
			BandHi: set.Class.Band.Hi,
			Anchor: set.Class.Anchor,
			WMin:   set.Class.WRange.Min,
			WMax:   set.Class.WRange.Max,
		}
		for gi, g := range set.Graphs {
			name := fmt.Sprintf("set%02d-g%03d.json", si, gi)
			f, err := os.Create(filepath.Join(dir, name))
			if err != nil {
				return err
			}
			err = g.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			ms.Graphs = append(ms.Graphs, name)
		}
		m.Sets = append(m.Sets, ms)
	}
	f, err := os.Create(filepath.Join(dir, manifestName))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(m)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Load reads a corpus previously written by Save, validating every
// graph and its class membership.
func Load(dir string) (*Corpus, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("corpus: bad manifest: %w", err)
	}
	c := &Corpus{Spec: m.Spec}
	for si, ms := range m.Sets {
		set := Set{Class: Class{
			Band:   gen.Band{Lo: ms.BandLo, Hi: ms.BandHi},
			Anchor: ms.Anchor,
			WRange: WeightRange{Min: ms.WMin, Max: ms.WMax},
		}}
		for _, name := range ms.Graphs {
			// Manifest entries are plain file names written by Save;
			// refuse anything that could escape the corpus directory
			// or name it (".." and "." are their own base names).
			if name == "" || name == "." || name == ".." || filepath.Base(name) != name {
				return nil, fmt.Errorf("corpus: manifest references suspicious path %q", name)
			}
			f, err := os.Open(filepath.Join(dir, name))
			if err != nil {
				return nil, err
			}
			g, err := dag.ReadJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return nil, fmt.Errorf("corpus: set %d graph %s: %w", si, name, err)
			}
			if !set.Class.Band.Contains(g.Granularity()) {
				return nil, fmt.Errorf("corpus: graph %s granularity %v outside its class band %v",
					name, g.Granularity(), set.Class.Band)
			}
			set.Graphs = append(set.Graphs, g)
		}
		c.Sets = append(c.Sets, set)
	}
	return c, nil
}
