// Command hbcalib is a development aid that prints miss-rate curves and
// per-region miss attribution for the synthetic benchmark models, used
// to calibrate them against the paper's Figure 3.
package main

import (
	"flag"
	"fmt"
	"sort"

	"hbcache/internal/mem"
	"hbcache/internal/sim"
	"hbcache/internal/workload"
)

var (
	attr  = flag.Bool("attr", false, "print per-region attribution at 4K instead of curves")
	avg   = flag.Bool("avg", false, "compare DRAM organization vs 16K SRAM across all benchmarks")
	insts = flag.Uint64("n", 300000, "instructions per point")
)

func main() {
	flag.Parse()
	if *avg {
		dramVsSRAM()
		return
	}
	if *attr {
		attribute()
		return
	}
	curves()
}

func curves() {
	sizes := []int{4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20}
	fmt.Printf("%-9s", "bench")
	for _, s := range sizes {
		fmt.Printf("%7dK", s>>10)
	}
	fmt.Println()
	for _, b := range workload.BenchmarkNames() {
		fmt.Printf("%-9s", b)
		rates, err := sim.MissRates(b, 1, sizes, *insts)
		if err != nil {
			panic(err)
		}
		for _, m := range rates {
			fmt.Printf("%7.2f%%", 100*m)
		}
		fmt.Println()
	}
}

func attribute() {
	for _, bench := range workload.BenchmarkNames() {
		g := workload.MustNew(bench, 1)
		regions := g.Regions()
		find := func(addr uint64) string {
			for _, r := range regions {
				if addr >= r.Base && addr < r.Base+r.Bytes {
					return r.Name
				}
			}
			return "?"
		}
		a := mem.MustNewArray(4<<10, 32, 2)
		misses := map[string]int{}
		refs := map[string]int{}
		var total, inst int
		warm := int(*insts)
		for i := 0; i < 2*warm; i++ {
			in, _ := g.Next()
			if i == warm {
				misses, refs, total, inst = map[string]int{}, map[string]int{}, 0, 0
			}
			inst++
			if !in.Op.IsMem() {
				continue
			}
			name := find(in.Addr)
			refs[name]++
			if !a.Lookup(in.Addr) {
				a.Fill(in.Addr)
				misses[name]++
				total++
			}
		}
		fmt.Printf("== %s: misses/inst@4K = %.2f%%\n", bench, 100*float64(total)/float64(inst))
		var names []string
		for n := range refs {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-10s refs/inst=%5.1f%%  missratio=%5.1f%%  misses/inst=%5.2f%%\n",
				n, 100*float64(refs[n])/float64(inst), 100*float64(misses[n])/float64(maxi(refs[n], 1)), 100*float64(misses[n])/float64(inst))
		}
	}
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}
