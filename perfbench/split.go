package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/multichannel"
	"repro/internal/netgen"
	"repro/internal/partition"
	"repro/internal/precompute"
	"repro/internal/servercache"
)

// setupSplit times the build stages a cold Deploy runs, one module call at
// a time, and a warm Deploy from the disk cache. The stages are rebuilt
// from exported constructors; the assembled cycle must match the one the
// deployment serves, or the split is measuring something else.
type setupSplit struct {
	generateS, kdtreeS, borderS, assembleS, warmLoadS float64
	planMs, encodeMs                                  float64
}

func measureSplit(sp spec, seed int64, served *broadcast.Cycle, scratch string) (setupSplit, error) {
	var s setupSplit
	p, err := netgen.PresetByName(sp.preset)
	if err != nil {
		return s, err
	}
	t0 := time.Now()
	g, err := p.Scaled(sp.scale).Generate(netSeed)
	if err != nil {
		return s, err
	}
	s.generateS = time.Since(t0).Seconds()

	opts := deploy.Params{}.CoreOptions()
	t0 = time.Now()
	kd, err := partition.NewKDTree(g, opts.Regions)
	if err != nil {
		return s, err
	}
	s.kdtreeS = time.Since(t0).Seconds()
	regions := precompute.BuildRegions(g, kd)

	t0 = time.Now()
	border := precompute.ComputeWorkers(g, regions, 0)
	s.borderS = time.Since(t0).Seconds()

	t0 = time.Now()
	var cycle *broadcast.Cycle
	if sp.method == deploy.NR {
		nr, err := core.NewNRShared(g, kd, regions, border, opts)
		if err != nil {
			return s, err
		}
		cycle = nr.Cycle()
	} else {
		cycle = core.NewEBShared(g, kd, regions, border, opts).Cycle()
	}
	s.assembleS = time.Since(t0).Seconds()
	if cycle.Len() != served.Len() {
		return s, fmt.Errorf("rebuilt %s cycle has %d packets, the deployment serves %d", sp.method, cycle.Len(), served.Len())
	}

	if sp.channels > 1 {
		t0 = time.Now()
		if _, err := multichannel.Build(cycle, sp.channels, multichannel.PlanOptions{}); err != nil {
			return s, err
		}
		s.planMs = float64(time.Since(t0)) / float64(time.Millisecond)
	}

	t0 = time.Now()
	if err := broadcast.EncodeCycle(io.Discard, cycle); err != nil {
		return s, err
	}
	s.encodeMs = float64(time.Since(t0)) / float64(time.Millisecond)

	s.warmLoadS, err = warmLoad(sp, seed, scratch)
	return s, err
}

// warmLoad deploys cold into a fresh disk cache, drops the in-memory tier,
// and times the second Deploy, which loads the build from disk.
func warmLoad(sp spec, seed int64, scratch string) (float64, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp(scratch, "diskcache-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	defer servercache.DisableDisk()
	defer servercache.Flush()
	g, err := sp.generate()
	if err != nil {
		return 0, err
	}
	opts := append(sp.serverOptions(seed),
		deploy.WithCache(fmt.Sprintf("%s/%g/%d", sp.preset, sp.scale, netSeed)),
		deploy.WithDiskCache(filepath.Join(dir, "tier"), 0))
	cold, err := deploy.Deploy(g, opts...)
	if err != nil {
		return 0, err
	}
	cold.Close()
	servercache.Flush()
	t0 := time.Now()
	warm, err := deploy.Deploy(g, opts...)
	if err != nil {
		return 0, err
	}
	elapsed := time.Since(t0).Seconds()
	warm.Close()
	return elapsed, nil
}
