// Command packtrace runs one PACK (or UNPACK) configuration on the
// emulated machine with the observability layer enabled and renders
// what happened: an ASCII Gantt chart of every processor's virtual
// time (the default), a Chrome trace-event JSON file for
// ui.perfetto.dev, the P×P communication matrix, and the virtual-time
// critical path — a visual companion to the packbench tables.
//
// The array shape and distribution are given in HPF directive
// notation:
//
//	packtrace -shape 16384 -dist "CYCLIC(16) ONTO 16" -scheme cms
//	packtrace -shape 64x64 -dist "CYCLIC(2), CYCLIC(2) ONTO 4x4" -density 0.3
//	packtrace -op unpack -scheme css -dist "CYCLIC ONTO 16"
//	packtrace -format chrome -o trace.json     # open in ui.perfetto.dev
//	packtrace -matrix                          # P×P messages/words, per phase
//	packtrace -critpath                        # blocking chain from the makespan
//	packtrace -backend real -format chrome -o wall.json  # wall-clock trace of the real backend
//	packtrace -jsonl events.jsonl              # stream the event feed as JSON Lines (bounded memory)
//	packtrace -flight-dir crash                # dump the flight recorder on deadlock or fault abort
//	packtrace -open crash/pack-cms-p16.flight.trace.json  # text digest of any Chrome trace we wrote
//
// With -backend real the same configuration executes on the real
// shared-memory backend: every timestamp in the output is wall-clock
// microseconds instead of virtual time (never both in one capture),
// the Gantt axis says so, and the -matrix picture is rebuilt from the
// telemetry counter registry instead of the event stream — the
// critical path is unavailable there (it is defined over the virtual
// cost model).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"packunpack/internal/dist"
	"packunpack/internal/hpf"
	"packunpack/internal/mask"
	"packunpack/internal/metrics"
	"packunpack/internal/pack"
	"packunpack/internal/sim"
	"packunpack/internal/trace"
	"packunpack/internal/transport"
)

func parseShape(s string) ([]int, error) {
	var shape []int
	for _, tok := range strings.Split(strings.ToLower(s), "x") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad shape extent %q", tok)
		}
		shape = append(shape, v)
	}
	return shape, nil
}

func main() {
	shapeFlag := flag.String("shape", "16384", "global array shape, e.g. 16384 or 64x64 (dimension 0 first)")
	distFlag := flag.String("dist", "CYCLIC(16) ONTO 16", "HPF DISTRIBUTE directive, e.g. \"CYCLIC(2), BLOCK ONTO 4x4\"")
	density := flag.Float64("density", 0.5, "mask density in [0,1]")
	schemeName := flag.String("scheme", "cms", "scheme: sss|css|cms")
	op := flag.String("op", "pack", "operation: pack|unpack")
	width := flag.Int("width", 72, "gantt chart width in columns")
	seed := flag.Uint64("seed", 1, "mask seed")
	format := flag.String("format", "gantt", "timeline format: gantt (ASCII) or chrome (trace-event JSON for ui.perfetto.dev)")
	outPath := flag.String("o", "", "write the chrome trace to this file (default stdout)")
	matrix := flag.Bool("matrix", false, "print the P x P communication matrix (messages/words, per phase)")
	critpath := flag.Bool("critpath", false, "print the virtual-time critical path (blocking chain ending at the makespan)")
	backendFlag := flag.String("backend", "sim", "transport backend: sim traces the virtual-clock emulator, real traces the shared-memory parallel backend in wall-clock microseconds")
	jsonlPath := flag.String("jsonl", "", "stream every trace event to this file as JSON Lines (one event per line; bounded memory regardless of run size)")
	flightDir := flag.String("flight-dir", "", "attach the always-on flight recorder and dump its window (Chrome trace + text post-mortem) into this directory if the run deadlocks or exhausts a fault budget")
	openPath := flag.String("open", "", "open a Chrome trace-event JSON file written by this toolchain (packtrace -format chrome, packbench -trace-dir, or a flight dump) and print a text digest")
	flag.Parse()

	if *openPath != "" {
		f, err := os.Open(*openPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := trace.SummarizeChrome(os.Stdout, f); err != nil {
			log.Fatal(err)
		}
		return
	}

	var scheme pack.Scheme
	switch *schemeName {
	case "sss":
		scheme = pack.SchemeSSS
	case "css":
		scheme = pack.SchemeCSS
	case "cms":
		scheme = pack.SchemeCMS
	default:
		log.Fatalf("unknown scheme %q", *schemeName)
	}
	if *op == "unpack" && scheme == pack.SchemeCMS {
		log.Fatalf("UNPACK supports sss and css only")
	}
	if *format != "gantt" && *format != "chrome" {
		log.Fatalf("unknown format %q (want gantt or chrome)", *format)
	}
	backend, err := transport.ParseBackend(*backendFlag)
	if err != nil {
		log.Fatal(err)
	}
	if err := checkBackendFlags(backend, setFlagNames(flag.CommandLine)); err != nil {
		log.Fatal(err)
	}

	shape, err := parseShape(*shapeFlag)
	if err != nil {
		log.Fatal(err)
	}
	layout, err := hpf.ParseDist(*distFlag, shape...)
	if err != nil {
		log.Fatalf("invalid distribution: %v", err)
	}
	gen := mask.NewRandom(*density, *seed, shape...)

	// The real backend's -matrix picture comes from the telemetry
	// counter registry rather than the event stream, so attach one.
	var reg *metrics.Registry
	if backend == transport.BackendReal {
		reg = metrics.NewRegistry()
	}

	// Streaming sink (-jsonl) and flight recorder (-flight-dir): both
	// ride the same event feed as the retained capture and work on
	// either backend.
	var jsonlFile *os.File
	var jsonlSink *trace.JSONLSink
	if *jsonlPath != "" {
		jsonlFile, err = os.Create(*jsonlPath)
		if err != nil {
			log.Fatal(err)
		}
		jsonlSink = trace.NewJSONLSink(jsonlFile)
	}
	var fr *sim.FlightRecorder
	if *flightDir != "" {
		fr = sim.MustNewFlightRecorder(layout.Procs(), sim.DefaultFlightCap)
	}

	var sink sim.EventSink
	if jsonlSink != nil {
		sink = jsonlSink
	}
	machine, err := transport.New(backend, sim.Config{
		Procs:   layout.Procs(),
		Params:  sim.CM5Params(),
		Record:  true,
		Trace:   true,
		Metrics: reg,
		Sink:    sink,
		Flight:  fr,
	})
	if err != nil {
		log.Fatal(err)
	}
	size := mask.Count(gen, shape...)
	vec, err := dist.NewVectorDist(size, layout.Procs(), 0)
	if err != nil {
		log.Fatal(err)
	}
	err = machine.Run(func(proc transport.Endpoint) {
		lm := mask.FillLocal(layout, proc.Rank(), gen)
		a := make([]int, layout.LocalSize())
		for i := range a {
			a[i] = proc.Rank()*layout.LocalSize() + i
		}
		var err error
		if *op == "unpack" {
			v := make([]int, vec.LocalLen(proc.Rank()))
			_, err = pack.Unpack(proc, layout, v, size, lm, a, pack.Options{Scheme: scheme})
		} else {
			_, err = pack.Pack(proc, layout, a, lm, pack.Options{Scheme: scheme})
		}
		if err != nil {
			panic(err)
		}
	})
	if jsonlSink != nil {
		// Flush whatever streamed — on a failed run the partial feed is
		// exactly the evidence worth keeping.
		if ferr := jsonlSink.Flush(); ferr != nil {
			fmt.Fprintf(os.Stderr, "packtrace: jsonl sink: %v\n", ferr)
		}
		if cerr := jsonlFile.Close(); cerr != nil {
			fmt.Fprintf(os.Stderr, "packtrace: jsonl sink: %v\n", cerr)
		}
	}
	if err != nil {
		if fr != nil && trace.ShouldDumpFlight(err) {
			label := fmt.Sprintf("%s-%s-p%d", *op, scheme, layout.Procs())
			c := trace.FlightCapture(layout.Procs(), sim.CM5Params(), nil, fr)
			tp, sp, derr := trace.DumpFlight(*flightDir, label, c, err)
			if derr != nil {
				fmt.Fprintf(os.Stderr, "packtrace: flight dump failed: %v\n", derr)
			} else {
				fmt.Fprintf(os.Stderr, "packtrace: flight recorder dumped: %s and %s (render with packtrace -open)\n", tp, sp)
			}
		}
		log.Fatal(err)
	}
	if jsonlSink != nil {
		fmt.Fprintf(os.Stderr, "streamed events to %s (JSON Lines)\n", *jsonlPath)
	}
	var capture *trace.Capture
	timeUnit := "virtual time"
	switch m := machine.(type) {
	case *transport.SimMachine:
		capture = trace.CaptureMachine(m.M)
	case *transport.RealMachine:
		capture = trace.CaptureReal(m)
		timeUnit = "wall time"
	default:
		log.Fatalf("unknown machine type %T", machine)
	}

	if *format == "chrome" {
		out := os.Stdout
		if *outPath != "" {
			f, err := os.Create(*outPath)
			if err != nil {
				log.Fatal(err)
			}
			defer func() {
				if err := f.Close(); err != nil {
					log.Fatal(err)
				}
			}()
			out = f
		}
		if err := trace.WriteChrome(out, capture); err != nil {
			log.Fatal(err)
		}
		if *outPath != "" {
			fmt.Fprintf(os.Stderr, "wrote %s (open in ui.perfetto.dev)\n", *outPath)
		}
		return
	}

	fmt.Printf("%s %s, shape %s, %s (P=%d), density %.0f%%, Size=%d, backend %s\n\n",
		*op, scheme, *shapeFlag, hpf.Format(layout.Dims), layout.Procs(), *density*100, size, backend)
	trace.GanttUnit(os.Stdout, capture.Spans, *width, timeUnit)
	fmt.Println()
	trace.Summary(os.Stdout, capture.Stats)
	if *matrix {
		fmt.Println()
		if reg != nil {
			// Real backend: the same P×P picture, rebuilt from the
			// telemetry counters (bytes/8 = words) instead of events.
			m, err := trace.MatrixFromMetrics(reg.Snapshot(), layout.Procs())
			if err != nil {
				log.Fatal(err)
			}
			trace.WriteMatrix(os.Stdout, m)
		} else {
			trace.WriteMatrix(os.Stdout, trace.BuildMatrix(capture))
		}
	}
	if *critpath {
		fmt.Println()
		rep, err := trace.CriticalPath(capture)
		if err != nil {
			log.Fatal(err)
		}
		trace.WriteCritPath(os.Stdout, rep)
	}
	if backend == transport.BackendReal {
		fmt.Printf("\ntotal wall time: %.3f ms\n", machine.MaxClock()/1000)
	} else {
		fmt.Printf("\ntotal simulated time: %.3f ms\n", machine.MaxClock()/1000)
	}
}
