package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// startProfiles begins a CPU profile into cpuPath and arranges for an
// allocation profile to be written to memPath (either may be empty). The returned stop
// finishes both; read them with `go tool pprof -top <file>`.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "codb-bench: cpuprofile:", err)
			}
		}
		if memPath != "" {
			if err := writeAllocProfile(memPath); err != nil {
				fmt.Fprintln(os.Stderr, "codb-bench: memprofile:", err)
			}
		}
	}, nil
}

func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // the profile reports allocations as of the last collection
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
