// Out-of-core: a shared object space larger than the DMM area.
//
// This is Table 1's workload (§4.3) in miniature: a two-node cluster
// allocates a 2-D array whose total size is 16x the DMM area, so the
// dynamic memory mapper must continuously swap row objects between the
// arena and the local-disk backing store. The example uses a REAL
// temp-file store, proving the spill path against the filesystem.
//
// Each row is filled and summed through a pinned row view: one access
// check and one map-in per row, with the pin holding the row resident
// against the mapper's eviction pressure while it is being touched.
//
//	go run ./examples/outofcore
package main

import (
	"fmt"
	"log"

	lots "repro"
	"repro/internal/apps"
	"repro/internal/disk"
	"repro/internal/platform"
)

func main() {
	const (
		nodes   = 2
		dmm     = 256 << 10 // 256 KB arena per node
		rows    = 256       // x 16 KB rows = 4 MB of shared objects
		rowInts = 4096
	)
	cfg := lots.DefaultConfig(nodes)
	cfg.Platform = platform.PIV2GFedora()
	cfg.DMMSize = dmm
	// Real temp-file backing stores. The runtime does not close what
	// cfg.Store hands it, so they are closed here, after the cluster.
	var stores []*disk.FileStore
	defer func() {
		for _, fs := range stores {
			if err := fs.Close(); err != nil {
				log.Print(err)
			}
		}
	}()
	cfg.Store = func(node int) disk.Store {
		fs, err := disk.NewFileStore("", 0)
		if err != nil {
			log.Fatal(err)
		}
		stores = append(stores, fs)
		return fs
	}
	cluster, err := lots.NewCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	err = cluster.Run(func(n *lots.Node) {
		res := apps.BigArray(apps.NewLotsBackend(n), apps.BigArrayConfig{
			Rows:    rows,
			RowInts: rowInts,
			Sweeps:  2,
		})
		fmt.Printf("node %d: verified sum %d\n", n.ID(), res.Sum)
	})
	if err != nil {
		log.Fatal(err)
	}

	t := cluster.Total()
	fmt.Printf("\nobject space: %d KB through a %d KB DMM area per node\n",
		rows*rowInts*4/1024, dmm/1024)
	fmt.Printf("map-ins: %d   swap-outs: %d   row views: %d\n", t.MapIns, t.SwapOuts, t.Views)
	fmt.Printf("disk: %d writes (%.1f MB), %d reads (%.1f MB) — one real swap file per node\n",
		t.DiskWrites, float64(t.DiskWriteBytes)/(1<<20),
		t.DiskReads, float64(t.DiskReadBytes)/(1<<20))
	fmt.Printf("simulated cluster time: %v\n", cluster.SimTime())
}
