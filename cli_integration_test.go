package blinkradar_test

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"blinkradar"
	"blinkradar/internal/transport"
)

// buildTool compiles one of the cmd binaries into dir and returns its
// path. Skips the test when the toolchain is unavailable.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func TestRadarsimCaptureRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI round trip skipped in -short mode")
	}
	dir := t.TempDir()
	radarsim := buildTool(t, dir, "radarsim")

	capturePath := filepath.Join(dir, "capture.brc")
	truthPath := filepath.Join(dir, "capture.json")
	cmd := exec.Command(radarsim,
		"-out", capturePath,
		"-truth", truthPath,
		"-subject", "4",
		"-duration", "45",
		"-seed", "99",
	)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("radarsim: %v\n%s", err, out)
	}

	// The capture file must be a clean .brc that decodes into the exact
	// frame matrix the library produces for the same spec.
	f, err := os.Open(capturePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cr, err := transport.NewCaptureReader(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := cr.Truncated(); err != nil {
		t.Fatalf("fresh radarsim capture does not end cleanly: %v", err)
	}
	m, err := cr.ReadMatrixFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumFrames() != 45*25 {
		t.Fatalf("capture has %d frames, want %d", m.NumFrames(), 45*25)
	}

	// The truth sidecar must parse and line up with detection results.
	raw, err := os.ReadFile(truthPath)
	if err != nil {
		t.Fatal(err)
	}
	var truth struct {
		SubjectID int `json:"subject_id"`
		EyeBin    int `json:"eye_bin"`
		Blinks    []struct {
			Start    float64 `json:"start_sec"`
			Duration float64 `json:"duration_sec"`
		} `json:"blinks"`
	}
	if err := json.Unmarshal(raw, &truth); err != nil {
		t.Fatalf("truth sidecar: %v", err)
	}
	if truth.SubjectID != 4 || len(truth.Blinks) == 0 {
		t.Fatalf("sidecar content %+v", truth)
	}

	events, _, err := blinkradar.Detect(blinkradar.DefaultConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	blinks := make([]blinkradar.Blink, 0, len(truth.Blinks))
	for _, b := range truth.Blinks {
		blinks = append(blinks, blinkradar.Blink{Start: b.Start, Duration: b.Duration})
	}
	scored := blinkradar.TrimWarmup(blinks, blinkradar.DefaultWarmup)
	match := blinkradar.Match(scored, events, 0)
	if match.Accuracy() < 0.5 {
		t.Fatalf("detection on the file round trip scored %.2f", match.Accuracy())
	}
}

// TestRadardAdminEndpoints boots the daemon and scrapes its admin
// port: /healthz must go healthy once the stream is pumping, and
// /metrics must export a JSON snapshot with live counters.
func TestRadardAdminEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI admin test skipped in -short mode")
	}
	dir := t.TempDir()
	radard := buildTool(t, dir, "radard")

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	daemon := exec.CommandContext(ctx, radard,
		"-addr", "127.0.0.1:0",
		"-admin", "127.0.0.1:0",
		"-duration", "10",
		"-pace=true",
		"-speed", "8",
		"-loop=true",
		"-seed", "7",
	)
	stderr, err := daemon.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		daemon.Process.Kill()
		daemon.Wait()
	}()

	// Parse the announced admin address off stderr.
	adminAddr := make(chan string, 1)
	go func() {
		scanner := bufio.NewScanner(stderr)
		for scanner.Scan() {
			line := scanner.Text()
			if i := strings.Index(line, "admin endpoints on "); i >= 0 {
				rest := line[i+len("admin endpoints on "):]
				adminAddr <- strings.Fields(rest)[0]
				return
			}
		}
	}()
	var base string
	select {
	case a := <-adminAddr:
		base = "http://" + a
	case <-time.After(30 * time.Second):
		t.Fatal("radard never announced its admin address")
	}

	httpClient := &http.Client{Timeout: 5 * time.Second}
	getJSON := func(path string, out any) (int, error) {
		resp, err := httpClient.Get(base + path)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
	}

	// /healthz reports ok once the pump is live.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var health struct {
			Status string `json:"status"`
		}
		code, err := getJSON("/healthz", &health)
		if err == nil && code == http.StatusOK && health.Status == "ok" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/healthz never went healthy (last: code %d, err %v)", code, err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// /metrics exports the counters and shows frames flowing.
	for {
		var snap struct {
			Counters map[string]uint64 `json:"counters"`
		}
		code, err := getJSON("/metrics", &snap)
		if err != nil || code != http.StatusOK {
			t.Fatalf("/metrics: code %d, err %v", code, err)
		}
		if _, ok := snap.Counters["transport_server_frames_pumped_total"]; !ok {
			t.Fatalf("/metrics missing frame counter: %v", snap.Counters)
		}
		if snap.Counters["transport_server_frames_pumped_total"] > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never pumped a frame")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestRadardRadarwatchPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline skipped in -short mode")
	}
	dir := t.TempDir()
	radard := buildTool(t, dir, "radard")
	radarwatch := buildTool(t, dir, "radarwatch")

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	// Paced at 4x real time: fast enough for the test, slow enough
	// that the monitoring client never becomes a dropped slow client.
	daemon := exec.CommandContext(ctx, radard,
		"-addr", "127.0.0.1:0",
		"-admin", "", // keep this test focused on the frame stream
		"-duration", "45",
		"-pace=true",
		"-speed", "4",
		"-loop=true",
		"-seed", "7",
	)
	stderr, err := daemon.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		daemon.Process.Kill()
		daemon.Wait()
	}()

	// The daemon logs its listen address; parse it.
	var addr string
	scanner := bufio.NewScanner(stderr)
	deadline := time.After(30 * time.Second)
	found := make(chan string, 1)
	go func() {
		for scanner.Scan() {
			line := scanner.Text()
			if i := strings.Index(line, "on 127.0.0.1:"); i >= 0 {
				found <- strings.TrimSpace(line[i+3:])
				break
			}
		}
	}()
	select {
	case addr = <-found:
	case <-deadline:
		t.Fatal("radard never announced its address")
	}

	// radarwatch must connect, decode the hello, and report blinks;
	// kill it as soon as the first blink line appears.
	watchCtx, watchCancel := context.WithTimeout(ctx, 45*time.Second)
	defer watchCancel()
	watch := exec.CommandContext(watchCtx, radarwatch, "-addr", addr)
	stdout, err := watch.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := watch.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		watch.Process.Kill()
		watch.Wait()
	}()
	var connected, blinked bool
	lines := bufio.NewScanner(stdout)
	for lines.Scan() {
		line := lines.Text()
		if strings.Contains(line, "connected: 150 bins") {
			connected = true
		}
		if strings.Contains(line, "blink") {
			blinked = true
			break
		}
	}
	if !connected {
		t.Fatal("radarwatch never connected")
	}
	if !blinked {
		t.Fatal("radarwatch reported no blinks before the stream ended")
	}
}

// TestRadarwatchRejectsBadWindowBeforeDialing checks that radarwatch
// validates -window at start-up. With nothing listening at -addr, a NaN
// window must fail at once with the Monitor's own message, not after
// the dial retries give up without naming the window.
func TestRadarwatchRejectsBadWindowBeforeDialing(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI flag test skipped in -short mode")
	}
	dir := t.TempDir()
	radarwatch := buildTool(t, dir, "radarwatch")

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, radarwatch,
		"-addr", "127.0.0.1:1",
		"-window", "NaN",
		"-max-retries", "2",
	).CombinedOutput()
	if err == nil {
		t.Fatalf("radarwatch accepted -window NaN:\n%s", out)
	}
	if !strings.Contains(string(out), "window must be positive and finite") {
		t.Fatalf("radarwatch -window NaN did not report the window:\n%s", out)
	}
}

// TestRadardIngestFleet boots radard in fleet mode and pushes several
// concurrent radar streams into it over the wire: hello, frames with a
// deliberate sequence gap, disconnect. The admin metrics must show
// every stream attached, every frame ingested, and every session
// detached once the connections close.
func TestRadardIngestFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI ingest test skipped in -short mode")
	}
	dir := t.TempDir()
	radard := buildTool(t, dir, "radard")

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	daemon := exec.CommandContext(ctx, radard,
		"-ingest", "127.0.0.1:0",
		"-admin", "127.0.0.1:0",
		"-ingest-bins", "16",
		"-ingest-fps", "25",
		"-ingest-shards", "2",
	)
	stderr, err := daemon.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		daemon.Process.Kill()
		daemon.Wait()
	}()

	// Parse both announced addresses off stderr.
	ingestAddr := make(chan string, 1)
	adminAddr := make(chan string, 1)
	go func() {
		scanner := bufio.NewScanner(stderr)
		for scanner.Scan() {
			line := scanner.Text()
			if i := strings.Index(line, " fps on "); i >= 0 {
				rest := line[i+len(" fps on "):]
				ingestAddr <- strings.Fields(rest)[0]
			}
			if i := strings.Index(line, "admin endpoints on "); i >= 0 {
				rest := line[i+len("admin endpoints on "):]
				adminAddr <- strings.Fields(rest)[0]
			}
		}
	}()
	var addr, base string
	for addr == "" || base == "" {
		select {
		case a := <-ingestAddr:
			addr = a
		case a := <-adminAddr:
			base = "http://" + a
		case <-time.After(30 * time.Second):
			t.Fatal("radard never announced its ingest/admin addresses")
		}
	}

	// Push 4 concurrent streams of 100 frames each, every stream with
	// one 5-frame sequence gap.
	const streams, frames, gapAt, gapLen = 4, 100, 40, 5
	push := func(stream int) error {
		conn, err := netDial(addr)
		if err != nil {
			return err
		}
		defer conn.Close()
		hello := transport.StreamHello{FrameRate: 25, BinSpacing: 0.0107, NumBins: 16}
		if err := transport.EncodeHello(conn, hello); err != nil {
			return err
		}
		enc := transport.NewEncoder(conn)
		bins := make([]complex128, 16)
		seq := uint64(1)
		for k := 0; k < frames; k++ {
			for b := range bins {
				bins[b] = complex(float64(stream)*1e-4, float64(k%7)*1e-4)
			}
			if k == gapAt {
				seq += gapLen
			}
			f := transport.Frame{Seq: seq, TimestampMicros: uint64(k) * 40_000, Bins: bins}
			if err := enc.Encode(f); err != nil {
				return err
			}
			seq++
		}
		return enc.Flush()
	}
	errs := make(chan error, streams)
	for i := 0; i < streams; i++ {
		go func(i int) { errs <- push(i) }(i)
	}
	for i := 0; i < streams; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("stream push: %v", err)
		}
	}

	// The daemon must account every stream: attached, ingested frame by
	// frame, and detached when the connections closed.
	httpClient := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var snap struct {
			Counters map[string]uint64 `json:"counters"`
		}
		resp, err := httpClient.Get(base + "/metrics")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&snap)
			resp.Body.Close()
		}
		if err == nil &&
			snap.Counters["session_attaches_total"] == streams &&
			snap.Counters["session_frames_total"] == streams*frames &&
			snap.Counters["session_detaches_total"] == streams {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet accounting never converged: %v", snap.Counters)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// netDial dials with a bounded timeout.
func netDial(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 5*time.Second)
}
