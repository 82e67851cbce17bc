package serve_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/heuristics/mcp"
	"schedcomp/internal/obs"
	"schedcomp/internal/schedcache"
	"schedcomp/internal/serve"
)

// TestLedgerAfterClose calls every entry point on a closed pipeline,
// with and without a cache, and requires ErrClosed plus a balanced
// admission ledger: a submission after Close counts as shed.
func TestLedgerAfterClose(t *testing.T) {
	ctx := context.Background()
	entries := []struct {
		name string
		call func(p *serve.Pipeline) error
	}{
		{"Schedule", func(p *serve.Pipeline) error {
			_, err := p.Schedule(ctx, mcp.New(), tinyGraph())
			return err
		}},
		{"ScheduleCached", func(p *serve.Pipeline) error {
			_, _, err := p.ScheduleCached(ctx, mcp.New(), tinyGraph())
			return err
		}},
		{"ScheduleBest", func(p *serve.Pipeline) error {
			_, _, err := p.ScheduleBest(ctx, tinyGraph(), time.Millisecond)
			return err
		}},
		{"ScheduleBatch", func(p *serve.Pipeline) error {
			var itemErr error
			err := p.ScheduleBatch(ctx,
				func() heuristics.Scheduler { return mcp.New() },
				[]*dag.Graph{tinyGraph()},
				func(r serve.Result) error { itemErr = r.Err; return nil })
			if err != nil {
				return err
			}
			return itemErr
		}},
	}
	for _, cached := range []bool{false, true} {
		for _, e := range entries {
			name := e.name + "/uncached"
			if cached {
				name = e.name + "/cached"
			}
			t.Run(name, func(t *testing.T) {
				reg := obs.NewRegistry()
				reg.SetEnabled(true)
				cfg := serve.Config{Workers: 1, QueueDepth: 1}
				if cached {
					cfg.Cache = schedcache.New(schedcache.Config{})
				}
				p := serve.New(cfg, reg)
				p.Close()

				if err := e.call(p); !errors.Is(err, serve.ErrClosed) {
					t.Fatalf("err = %v, want ErrClosed", err)
				}
				submitted := reg.Counter("serve_submitted_total", "").Value()
				admitted := reg.Counter("serve_admitted_total", "").Value()
				shed := reg.Counter("serve_shed_total", "").Value()
				if submitted != admitted+shed {
					t.Errorf("submitted (%d) != admitted (%d) + shed (%d)", submitted, admitted, shed)
				}
				if admitted != 0 {
					t.Errorf("admitted = %d after Close, want 0", admitted)
				}
			})
		}
	}
}
