package main

// paper-disk: the paper's default setting (Sec. VI) at a reduced scale:
// d = 4 anti-correlated costs, the database written with
// mcn.CreateDatabase and opened with mcn.OpenDatabase behind a 1% buffer,
// no result cache. One caller runs CEA skyline and CEA top-k (k = 4,
// random weights) in turn over a fixed query list through the facade.

import (
	"context"
	"os"
	"path/filepath"
	"time"

	"mcn"
	"mcn/internal/storage"
	"mcn/internal/wire"
)

var diskSpec = netSpec{nodes: 3000, facilities: 1200, d: 4}

const (
	bufferFrac = 0.01
	diskWarmup = 200 // queries before measuring
	diskSetups = 45  // set-ups per run; setup_s is the fastest
)

// diskDeploy is one created and opened database.
type diskDeploy struct {
	dir string
	net *mcn.Network
}

// setupDisk is the timed set-up: write the database, open it.
func setupDisk(g *mcn.Graph) (*diskDeploy, time.Duration, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, 0, err
	}
	dir, err := os.MkdirTemp(buildDir, "paper-disk-")
	if err != nil {
		return nil, 0, err
	}
	d := &diskDeploy{dir: dir}
	path := filepath.Join(dir, "mcn.db")
	start := time.Now()
	if err := mcn.CreateDatabase(g, path); err != nil {
		d.close()
		return nil, 0, err
	}
	if d.net, err = mcn.OpenDatabase(path, bufferFrac); err != nil {
		d.close()
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

// reopenTraced reopens the database through the benchmark's traced device.
func (d *diskDeploy) reopenTraced(tr *tracer) error {
	d.net.Close() //nolint:errcheck // read-only file
	dev, err := storage.OpenFileDevice(filepath.Join(d.dir, "mcn.db"))
	if err != nil {
		return err
	}
	d.net, err = mcn.OpenDeviceOptions(&tracedDevice{Device: dev, tr: tr}, bufferFrac, mcn.PoolOptions{})
	if err != nil {
		dev.Close()
	}
	return err
}

func (d *diskDeploy) close() {
	if d.net != nil {
		d.net.Close() //nolint:errcheck // read-only file
	}
	os.RemoveAll(d.dir)
}

// diskLoop runs the query list from position *next for dur (or for count
// queries when count > 0), checking every answer.
func diskLoop(net *mcn.Network, qs []query, next *int, dur time.Duration, count int, tr *tracer) loopResult {
	var lr loopResult
	ctx := context.Background()
	cea := mcn.WithEngine(mcn.CEA)
	start := time.Now()
	deadline := start.Add(dur)
	for n := 0; (count > 0 && n < count) || (count == 0 && time.Now().Before(deadline)); n++ {
		q := &qs[*next%len(qs)]
		*next++
		loc := mcn.Location{Edge: mcn.EdgeID(q.req.Edge), T: q.req.T}
		lr.attempted++
		var res *mcn.Result
		var err error
		t0 := time.Now()
		timed(tr, "core.query", 0, -1, func() {
			if q.req.Kind == wire.KindSkyline {
				res, err = net.Skyline(ctx, loc, cea)
			} else {
				res, err = net.TopK(ctx, loc, mcn.WeightedSum(q.req.Weights...), q.req.K, cea)
			}
		})
		elapsed := time.Since(t0)
		if err != nil {
			lr.failed++
			if lr.firstErr == nil {
				lr.firstErr = err
			}
			continue
		}
		lr.lat = append(lr.lat, elapsed)
		lr.done = append(lr.done, time.Since(start))
		lr.work.answers++
		lr.work.add(res.Stats)
		if err := q.ans.check(wire.FromFacilities(res.Facilities)); err != nil {
			lr.mismatch = &mismatch{"facade " + q.req.URI(), err}
			break
		}
	}
	lr.wall = time.Since(start)
	lr.completed = len(lr.lat)
	return lr
}

func runPaperDisk(cfg config) (*outcome, error) {
	t0 := time.Now()
	g, err := makeGraph(diskSpec)
	if err != nil {
		return nil, err
	}
	og, err := newOracleGraph(g)
	if err != nil {
		return nil, err
	}
	qs := diskInputs(g, og, cfg.seed)

	logPhase("inputs", t0)
	t0 = time.Now()
	tr := newTracer()
	heapBase := liveHeap()
	dep, setupS, err := measureSetup(diskSetups, func() (*diskDeploy, time.Duration, error) {
		return setupDisk(g)
	}, (*diskDeploy).close)
	if err != nil {
		return nil, err
	}
	defer dep.close()
	logPhase("setup", t0)
	next := 0
	if m := diskLoop(dep.net, qs, &next, 0, diskWarmup, tr).mismatch; m != nil {
		return failOutcome(m), nil
	}
	heap := heapGrowth(heapBase)
	keepAlive(g, og)
	window := time.Duration(cfg.seconds) * time.Second

	out := &outcome{}
	if !cfg.trace {
		lr := diskLoop(dep.net, qs, &next, window, 0, tr)
		out.metrics = endToEnd(lr, setupS, heap)
		out.ops = []opCount{{"read", lr.attempted, lr.failed}}
		out.mismatch = lr.mismatch
		reportErr(lr.firstErr)
		return out, nil
	}

	// Traced run: an untraced half, then a traced half through the
	// benchmark's device wrapper over the same database file.
	plain := diskLoop(dep.net, qs, &next, window/2, 0, tr)
	if err := dep.reopenTraced(tr); err != nil {
		return nil, err
	}
	if w := diskLoop(dep.net, qs, &next, 0, diskWarmup, tr); w.mismatch != nil {
		return failOutcome(w.mismatch), nil
	}
	dep.net.ResetIOStats()
	tr.on.Store(true)
	traced := diskLoop(dep.net, qs, &next, window/2, 0, tr)
	tr.on.Store(false)
	io, _ := dep.net.IOStats()

	vals := map[string]float64{
		"storage.logical_reads_per_query": perQuery(int(io.Logical), traced.completed),
		"storage.phys_reads_per_query":    perQuery(int(io.Physical), traced.completed),
		"storage.pool_hit_ratio":          io.HitRate(),
		"storage.device_read_us":          tr.meanUS("storage.read"),
	}
	if q := tr.sumDur("core.query"); q > 0 {
		vals["storage.device_share"] = float64(tr.sumDur("storage.read")) / float64(q)
	}
	workLayers(vals, traced.work)
	runLayers(vals, plain, traced, tr)
	out.metrics = layerMetrics(vals)
	out.ops = mergeOps([]opCount{{"read", plain.attempted, plain.failed}, {"read", traced.attempted, traced.failed}})
	out.mismatch = firstErr(plain.mismatch, traced.mismatch)
	reportErr(firstErr(plain.firstErr, traced.firstErr))
	return out, tr.write(tracePath("paper-disk", cfg.seed))
}
