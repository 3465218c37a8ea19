// Command lotsvet runs the repo's invariant analyzers (see
// internal/analysis) over module packages:
//
//	lotsvet [packages]   (default ./...)
//
// It loads packages in dependency order with in-package test files (so
// boundeddecode sees fuzz targets) and threads analyzer facts through
// the run in memory. It exits 1 when any analyzer reports.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/lint"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lotsvet: ")
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		log.Fatal(err)
	}
	root, err := lint.FindModRoot(wd)
	if err != nil {
		log.Fatal(err)
	}
	loader, err := lint.NewLoader(root, patterns...)
	if err != nil {
		log.Fatal(err)
	}
	facts := lint.NewFactStore()
	exit := 0
	for _, path := range loader.ModulePackages() {
		pkg, err := loader.Load(path)
		if err != nil {
			log.Fatal(err)
		}
		diags, err := lint.RunAnalyzers(pkg, analysis.All(), facts)
		if err != nil {
			log.Fatal(err)
		}
		for _, d := range diags {
			fmt.Println(d)
			exit = 1
		}
	}
	os.Exit(exit)
}
