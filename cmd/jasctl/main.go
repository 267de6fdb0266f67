// Command jasctl is the client for jasd, the characterization daemon.
//
// Usage:
//
//	jasctl [-addr http://127.0.0.1:8077] <command> [flags]
//
// Commands:
//
//	submit  [-scale quick] [-ir N] [-seed N] [-heap-mb N] [-heap-page 4K|16M]
//	        [-duration-ms N] [-ramp-ms N] [-workload NAME] [-timeout D]
//	        [-arrival SPEC.json] [-replay-trace TRACE.ndjson]
//	        [-retries N] [-wait] [-format json|md]
//	        submit a run; prints the job status, or (with -wait) blocks and
//	        prints the finished report. -timeout sets the run's execution
//	        deadline (timeout_s). -arrival embeds a loadgen spec file in
//	        the JobSpec; -replay-trace converts a recorded v1 NDJSON trace
//	        into an inline trace spec and submits that, so the server
//	        replays the captured load. With -retries, queue-full
//	        rejections are retried up to N times, sleeping the server's
//	        Retry-After hint plus jitter between attempts.
//	status  <id>             print a job's status
//	list                     list all jobs
//	cancel  <id>             release one submission reference; the last
//	                         release aborts an unfinished run mid-window
//	report  <id> [-wait] [-format json|md]
//	        fetch a finished report
//	stream  <id>             tail the live per-window NDJSON stream; on a
//	                         dropped connection, resumes from the last line
//	                         seen instead of replaying from event zero
//	figure  <id> <fig> [-format json|md]
//	        fetch one figure (fig2..fig10, tprof, vmstat, locking, scalars,
//	        crosschecks, largepages)
//	sweep   -grid FILE [-timeout D] [-tail] [-table]
//	        submit a parameter sweep from a JSON spec file ("-" = stdin:
//	        {"base": {...JobSpec...}, "axes": [{"param": ..., "values":
//	        [...]}]}). By default tails the per-cell NDJSON row stream
//	        until the sweep finishes; -tail=false just prints the sweep
//	        status. -table fetches the cross-cell comparison table once
//	        the sweep is done. -timeout sets each cell's run deadline.
//	sweep   list|status|cancel|table|stream [<id>]
//	        inspect or cancel an existing sweep
//	workloads                list the server's registered workload packs
//	metrics                  dump the Prometheus /metrics exposition
//
// Exit status 4 means the server rejected the submission with 429 (queue
// full) and the retry budget (if any) is exhausted; the Retry-After hint
// is printed to stderr.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"jasworkload/internal/loadgen"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8077", "jasd base URL")
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]

	// Every long-lived wait below (429 retry backoff, stream resume poll)
	// selects on this context, so a Ctrl-C lands immediately instead of
	// after the current sleep expires.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch cmd {
	case "submit":
		err = submit(ctx, *addr, args)
	case "status":
		err = get(*addr, args, "", false)
	case "list":
		err = doJSON(*addr+"/v1/runs", nil)
	case "cancel":
		err = cancel(*addr, args)
	case "report":
		err = report(*addr, args)
	case "stream":
		err = stream(ctx, *addr, args)
	case "sweep":
		err = sweepCmd(ctx, *addr, args)
	case "figure":
		err = figure(*addr, args)
	case "workloads":
		err = raw(*addr + "/v1/workloads")
	case "metrics":
		err = raw(*addr + "/metrics")
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "jasctl:", err)
		os.Exit(1)
	}
}

// sleepCtx sleeps for d unless ctx is cancelled first, in which case it
// returns the context error immediately.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: jasctl [-addr URL] submit|status|list|cancel|report|stream|figure|sweep|workloads|metrics [flags]")
	os.Exit(2)
}

// submit posts a JobSpec assembled from flags.
func submit(ctx context.Context, addr string, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	scale := fs.String("scale", "quick", "run scale: quick, standard, or full")
	ir := fs.Int("ir", 0, "injection rate override")
	seed := fs.Int64("seed", 0, "run seed (0 = server default)")
	heapMB := fs.Uint64("heap-mb", 0, "heap size override, MB")
	heapPage := fs.String("heap-page", "", "heap page size: 4K or 16M")
	durationMS := fs.Float64("duration-ms", 0, "run duration override, ms")
	rampMS := fs.Float64("ramp-ms", 0, "ramp override, ms")
	workloadName := fs.String("workload", "", "workload pack (server default jas2004; see GET /v1/workloads)")
	arrivalFile := fs.String("arrival", "", "loadgen arrival spec file (JSON) to embed in the JobSpec")
	replayTrace := fs.String("replay-trace", "", "recorded v1 NDJSON trace to replay (converted to an inline trace spec)")
	timeout := fs.Duration("timeout", 0, "run execution deadline (0 = server default)")
	retries := fs.Int("retries", 0, "retry queue-full rejections up to N times, honoring Retry-After")
	wait := fs.Bool("wait", false, "block until the run finishes and print its report")
	format := fs.String("format", "json", "report format with -wait: json or md")
	fs.Parse(args)

	spec := map[string]any{"scale": *scale}
	if *ir > 0 {
		spec["ir"] = *ir
	}
	if *seed != 0 {
		spec["seed"] = *seed
	}
	if *heapMB > 0 {
		spec["heap_mb"] = *heapMB
	}
	if *heapPage != "" {
		spec["heap_page"] = *heapPage
	}
	if *durationMS > 0 {
		spec["duration_ms"] = *durationMS
	}
	if *rampMS > 0 {
		spec["ramp_ms"] = *rampMS
	}
	if *workloadName != "" {
		spec["workload"] = *workloadName
	}
	if *arrivalFile != "" && *replayTrace != "" {
		return fmt.Errorf("-arrival and -replay-trace are mutually exclusive")
	}
	if *arrivalFile != "" {
		raw, err := os.ReadFile(*arrivalFile)
		if err != nil {
			return err
		}
		// Parse locally so a typo fails here with a line-level error, and
		// embed the validated document verbatim (the server canonicalizes).
		if _, err := loadgen.Parse(raw); err != nil {
			return err
		}
		spec["arrival"] = json.RawMessage(raw)
	}
	if *replayTrace != "" {
		f, err := os.Open(*replayTrace)
		if err != nil {
			return err
		}
		tr, err := loadgen.ReadTrace(f)
		f.Close()
		if err != nil {
			return err
		}
		inline, err := json.Marshal(tr.Spec())
		if err != nil {
			return err
		}
		spec["arrival"] = json.RawMessage(inline)
	}
	if *timeout > 0 {
		spec["timeout_s"] = timeout.Seconds()
	}
	body, _ := json.Marshal(spec)

	url := addr + "/v1/runs"
	if *wait {
		url += "?wait=1&format=" + *format
	}
	resp, err := post429Retry(ctx, url, "application/json", body, *retries, sleepCtx)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		fmt.Fprintf(os.Stderr, "jasctl: queue full, Retry-After %ss\n", resp.Header.Get("Retry-After"))
		os.Exit(4)
	}
	return dump(resp)
}

// post429Retry POSTs body to url, retrying up to retries times when the
// server answers 429 with a Retry-After hint. Each backoff runs through
// the injected sleep so an interrupt (or a test) can cut it short; a
// cancelled sleep aborts the whole loop with the context error. Once the
// retry budget is spent the final 429 response is returned to the caller
// un-retried, body open, so the caller can surface the hint.
func post429Retry(ctx context.Context, url, contentType string, body []byte, retries int, sleep func(context.Context, time.Duration) error) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", contentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusTooManyRequests || attempt >= retries {
			return resp, nil
		}
		hint := resp.Header.Get("Retry-After")
		resp.Body.Close()
		// Honor the server's hint, jittered up to +50% so a herd of
		// rejected clients does not re-converge on the same instant.
		secs, err := strconv.Atoi(hint)
		if err != nil || secs < 1 {
			secs = 1
		}
		d := time.Duration((1 + 0.5*rand.Float64()) * float64(secs) * float64(time.Second))
		fmt.Fprintf(os.Stderr, "jasctl: queue full, retry %d/%d in %s\n", attempt+1, retries, d.Round(100*time.Millisecond))
		if err := sleep(ctx, d); err != nil {
			return nil, err
		}
	}
}

// cancel releases one submission reference via DELETE /v1/runs/{id}.
func cancel(addr string, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("cancel needs a job id")
	}
	return del(addr + "/v1/runs/" + args[0])
}

// report fetches /v1/runs/{id}/report.
func report(addr string, args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	wait := fs.Bool("wait", false, "block until the run finishes")
	format := fs.String("format", "json", "json or md")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("report needs a job id")
	}
	q := "?format=" + *format
	if *wait {
		q += "&wait=1"
	}
	return raw(addr + "/v1/runs/" + fs.Arg(0) + "/report" + q)
}

// figure fetches /v1/runs/{id}/figures/{fig}.
func figure(addr string, args []string) error {
	fs := flag.NewFlagSet("figure", flag.ExitOnError)
	format := fs.String("format", "json", "json or md")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("figure needs a job id and a figure name")
	}
	return raw(addr + "/v1/runs/" + fs.Arg(0) + "/figures/" + fs.Arg(1) + "?format=" + *format)
}

// stream tails the NDJSON window stream, line by line as it arrives. A
// dropped connection is retried with ?from=<events seen>, so the client
// resumes where it left off instead of replaying the whole history; the
// stream is complete once the terminal status line ({"done":true,...})
// has been printed.
func stream(ctx context.Context, addr string, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("stream needs a job id")
	}
	return tailStream(ctx, addr, "/v1/runs/"+args[0]+"/stream")
}

// tailStream tails one NDJSON stream endpoint (run windows or sweep rows)
// with ?from= resume on dropped connections. The inter-retry pause and
// the stream connection itself are both context-bound, so an interrupt
// during either returns right away.
func tailStream(ctx context.Context, addr, path string) error {
	const maxRetries = 5
	seen, retries := 0, 0
	for {
		err := streamOnce(ctx, addr, path, &seen)
		if err == nil {
			return nil
		}
		var term *terminalError
		if errors.As(err, &term) {
			return term.err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		retries++
		if retries > maxRetries {
			return err
		}
		fmt.Fprintf(os.Stderr, "jasctl: stream interrupted (%v), resuming from event %d\n", err, seen)
		if err := sleepCtx(ctx, time.Second); err != nil {
			return err
		}
	}
}

// terminalError marks a stream failure no resume can fix: the server
// answered with an error status (job unknown, evicted, bad offset)
// rather than the connection dropping mid-stream.
type terminalError struct{ err error }

func (e *terminalError) Error() string { return e.err.Error() }
func (e *terminalError) Unwrap() error { return e.err }

// streamOnce runs one stream connection from event *seen, advancing
// *seen per event line. It returns nil once the terminal line arrives
// and an error for anything that warrants a resume.
func streamOnce(ctx context.Context, addr, path string, seen *int) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s%s?from=%d", addr, path, *seen), nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// The body here is a JSON error, not stream output: a 404/410
		// means the job is gone and no resume can bring it back.
		return &terminalError{httpError(resp)}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		var fin struct {
			Done bool `json:"done"`
		}
		if json.Unmarshal([]byte(line), &fin) == nil && fin.Done {
			return nil
		}
		*seen++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("stream ended without a terminal line")
}

// sweepCmd drives the sweep API. With -grid it submits a spec file and
// (by default) tails the row stream; without it, the first positional
// argument selects a lifecycle subcommand.
func sweepCmd(ctx context.Context, addr string, args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	grid := fs.String("grid", "", `sweep spec JSON file ("-" = stdin)`)
	timeout := fs.Duration("timeout", 0, "per-cell run deadline (0 = server default)")
	tail := fs.Bool("tail", true, "tail the per-cell row stream until the sweep finishes")
	table := fs.Bool("table", false, "print the comparison table once the sweep is done")
	fs.Parse(args)
	if *grid != "" {
		return sweepSubmit(ctx, addr, *grid, *timeout, *tail, *table)
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("sweep needs -grid FILE or a subcommand: list|status|cancel|table|stream")
	}
	sub, rest := fs.Arg(0), fs.Args()[1:]
	if sub == "list" {
		return raw(addr + "/v1/sweeps")
	}
	if len(rest) != 1 {
		return fmt.Errorf("sweep %s needs a sweep id", sub)
	}
	id := rest[0]
	switch sub {
	case "status":
		return raw(addr + "/v1/sweeps/" + id)
	case "table":
		return raw(addr + "/v1/sweeps/" + id + "/table")
	case "stream":
		return tailStream(ctx, addr, "/v1/sweeps/"+id+"/stream")
	case "cancel":
		return del(addr + "/v1/sweeps/" + id)
	default:
		return fmt.Errorf("unknown sweep subcommand %q", sub)
	}
}

// sweepSubmit posts the grid file to /v1/sweeps and optionally tails the
// row stream and fetches the final comparison table.
func sweepSubmit(ctx context.Context, addr, grid string, timeout time.Duration, tail, table bool) error {
	var src io.Reader
	if grid == "-" {
		src = os.Stdin
	} else {
		f, err := os.Open(grid)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	var spec map[string]any
	if err := json.NewDecoder(src).Decode(&spec); err != nil {
		return fmt.Errorf("parsing %s: %w", grid, err)
	}
	if timeout > 0 {
		base, _ := spec["base"].(map[string]any)
		if base == nil {
			base = map[string]any{}
		}
		base["timeout_s"] = timeout.Seconds()
		spec["base"] = base
	}
	body, _ := json.Marshal(spec)
	resp, err := http.Post(addr+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return httpError(resp)
	}
	var st struct {
		ID    string `json:"id"`
		Cells int    `json:"cells"`
	}
	respBody, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err := json.Unmarshal(respBody, &st); err != nil || st.ID == "" {
		return fmt.Errorf("unexpected submit response: %s", strings.TrimSpace(string(respBody)))
	}
	if !tail {
		_, err = os.Stdout.Write(append(bytes.TrimRight(respBody, "\n"), '\n'))
		return err
	}
	fmt.Fprintf(os.Stderr, "jasctl: sweep %s submitted (%d cells), tailing rows\n", st.ID, st.Cells)
	if err := tailStream(ctx, addr, "/v1/sweeps/"+st.ID+"/stream"); err != nil {
		return err
	}
	if table {
		return raw(addr + "/v1/sweeps/" + st.ID + "/table")
	}
	return nil
}

// get fetches /v1/runs/{id}{suffix}.
func get(addr string, args []string, suffix string, allowEmpty bool) error {
	if len(args) != 1 && !allowEmpty {
		return fmt.Errorf("need a job id")
	}
	return raw(addr + "/v1/runs/" + args[0] + suffix)
}

// doJSON GETs url and prints the body.
func doJSON(url string, _ []string) error { return raw(url) }

// raw GETs url and copies the body to stdout.
func raw(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return dump(resp)
}

// del DELETEs url and copies the body to stdout.
func del(url string) error {
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return dump(resp)
}

// dump copies the response body to stdout, turning non-2xx into an error.
func dump(resp *http.Response) error {
	if resp.StatusCode >= 300 {
		return httpError(resp)
	}
	_, err := io.Copy(os.Stdout, resp.Body)
	return err
}

// httpError renders a non-2xx response.
func httpError(resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(b)))
}
