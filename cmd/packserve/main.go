// Command packserve drives the concurrent PACK/UNPACK service
// (internal/serve) with the open-loop traffic harness
// (internal/serve/loadgen) and reports throughput and latency.
//
//	packserve                                  # 100k-request deterministic sim run
//	packserve -requests 1000000 -seed 1        # the million-request schedule
//	packserve -soak                            # additionally execute every request, byte-verified
//	packserve -gate-p99 8000                   # exit 1 if p99 latency exceeds 8000 virtual µs
//	packserve -backend real -requests 5000     # wall-clock paced run on the real backend
//	packserve -chaos "7:drop=0.2" -soak        # chaos soak: jobs succeed byte-identically or fail structured
//	packserve -json run.json -trace-out svc.json  # machine-readable report + Perfetto schedule
//
// On the sim backend the run is a discrete-event simulation of the
// admission queue in virtual microseconds: every class's service time
// is first measured as the warm plan-cached virtual makespan of the
// real job through a real server (byte-verified against the
// sequential reference), and the reported histogram is then a pure
// function of the seed — identical across runs and machines, which is
// what lets `make servgate` enforce a p99 threshold without noise.
// With -soak every request additionally executes for real with its
// own payload and is byte-compared against internal/seq. With
// -backend real the same deterministic schedule is paced in wall
// time and the latencies are host measurements (never gateable).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"packunpack/internal/serve/loadgen"
	"packunpack/internal/sim"
	"packunpack/internal/trace"
	"packunpack/internal/transport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("packserve: ")
	var (
		requests = flag.Int("requests", 100_000, "arrivals to generate")
		seed     = flag.Uint64("seed", 1, "master seed: arrival schedule, class choices, payloads")
		rate     = flag.Float64("rate", 0, "arrival rate per second (0: 70% of modelled pool capacity)")
		workers  = flag.Int("workers", 8, "service worker-pool size")
		queue    = flag.Int("queue", 256, "admission-queue capacity")
		backend  = flag.String("backend", "sim", "backend: sim (virtual clock, deterministic) or real (wall clock, paced)")
		soak     = flag.Bool("soak", false, "execute every request through the server, byte-verified (sim)")
		mix      = flag.String("mix", "default", "workload mix: default (small/medium/large) or small (tiny layouts, budget for million-request execute soaks)")
		chaos    = flag.String("chaos", "", "chaos mode fault spec, e.g. \"7:drop=0.2,stall=0.1\" (sim only)")
		gateP99  = flag.Int64("gate-p99", 0, "fail (exit 1) if p99 latency exceeds this many virtual µs (sim only)")
		jsonOut  = flag.String("json", "", "write the run report as JSON to this file")
		traceOut = flag.String("trace-out", "", "write the service schedule as Chrome trace JSON (load in ui.perfetto.dev)")
	)
	flag.Parse()

	b, err := transport.ParseBackend(*backend)
	if err != nil {
		log.Fatal(err)
	}
	cfg := loadgen.Config{
		Seed: *seed, Requests: *requests, RatePerSec: *rate,
		Workers: *workers, Queue: *queue, Execute: *soak,
	}
	switch *mix {
	case "default":
	case "small":
		cfg.Mix = loadgen.SmallMix()
	default:
		log.Fatalf("unknown -mix %q (want default or small)", *mix)
	}
	if *chaos != "" {
		fc, err := sim.ParseFaults(*chaos)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Chaos = fc
	}

	var res *loadgen.Result
	switch b {
	case transport.BackendReal:
		if *soak || *gateP99 > 0 || cfg.Chaos != nil {
			log.Fatal("-soak, -gate-p99 and -chaos are sim-only (the real backend's latencies are wall measurements)")
		}
		cfg.Backend = transport.BackendReal
		res, err = loadgen.RunWall(cfg)
	default:
		res, err = loadgen.Run(cfg)
	}
	if err != nil {
		log.Fatal(err)
	}

	unit := "virtual µs"
	if b == transport.BackendReal {
		unit = "wall µs"
	}
	fmt.Printf("packserve: seed %d, %d requests at %.1f req/s over %d workers (queue %d, %s backend)\n",
		res.Seed, res.Requests, res.RatePerSec, *workers, *queue, b)
	fmt.Printf("  admitted %d, overloaded %d, duration %.3f s, throughput %.1f req/s\n",
		res.Admitted, res.Overloaded, float64(res.DurationUS)/1e6, res.ThroughputRPS)
	fmt.Printf("  latency (%s): p50 %d  p99 %d  p999 %d  (checksum %d)\n",
		unit, res.P50US, res.P99US, res.P999US, res.SumUS)
	for _, c := range res.Classes {
		fmt.Printf("  class %-14s weight %d  service %6d µs  arrivals %d\n",
			c.Name, c.Weight, c.ServiceUS, c.Arrivals)
	}
	if *soak {
		fmt.Printf("  soak: executed %d requests byte-identically in %.1f ms (%.0f req/s wall)",
			res.Executed, res.ExecWallMS, float64(res.Executed)/res.ExecWallMS*1e3)
		if res.ExecFaulted > 0 {
			fmt.Printf(", %d structured chaos failures", res.ExecFaulted)
		}
		fmt.Println()
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if *traceOut != "" {
		spans := make([]trace.ServiceSpan, len(res.Spans))
		for i, s := range res.Spans {
			spans[i] = trace.ServiceSpan{Class: s.Class, Worker: s.Worker,
				ArrivalUS: s.ArrivalUS, StartUS: s.StartUS, DoneUS: s.DoneUS}
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := trace.WriteServiceChrome(f, spans); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if *gateP99 > 0 && res.P99US > *gateP99 {
		log.Fatalf("servgate: p99 %d µs exceeds the %d µs threshold", res.P99US, *gateP99)
	}
	if *gateP99 > 0 {
		fmt.Printf("  servgate: p99 %d µs within the %d µs threshold\n", res.P99US, *gateP99)
	}
}
