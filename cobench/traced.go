package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"
)

// runTraced produces the per-layer metrics. The same plan runs twice: first
// untraced for half the window — the reference for the trace's overhead and
// for how late the generator ran — then traced for the whole window, with
// spans around every layer call the benchmark can wrap and, afterwards,
// replays of the layers it cannot on the payloads the window carried.
// End-to-end metrics never come from this mode.
func runTraced(o options, w workload, window time.Duration, res *result) error {
	pA := newPlan(w, o.seed, window/2)
	sA, _, err := setUp(pA, nil)
	if err != nil {
		return fmt.Errorf("untraced set-up: %w", err)
	}
	mA, err := measure(sA, pA, false)
	sA.close()
	if err != nil {
		return err
	}

	tr := newTracer()
	pB := newPlan(w, o.seed, window)
	sB, _, err := setUp(pB, tr)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	mB, err := measure(sB, pB, o.tamper)
	sB.close()
	if err != nil {
		return err
	}
	rs := sB.replay()
	tracePath := filepath.Join(o.out, "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := tr.write(tracePath); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}

	res.Attempted = mA.attempted + mB.attempted
	res.Failed = mA.failed + mB.failed
	res.violations = append(mA.viols, mB.viols...)
	if rs.applyErrors > 0 {
		res.violations = append(res.violations, fmt.Sprintf("%d replayed payloads failed to verify, decode or apply", rs.applyErrors))
	}
	unmeasured := []string{}
	set := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			unmeasured = append(unmeasured, name)
			v = 0
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	dur := func(name string) dist {
		d, _ := tr.durations(name, 0, math.MaxInt64)
		return d
	}
	ops := float64(mB.dr.ops)
	d := mB.post.sub(mB.pre)
	fleet := float64(w.fleet)

	mutate := dur(spMutate)
	set("browser.mutate_us_p50", "us", mutate.us(0.50))
	set("browser.mutate_us_p99", "us", mutate.us(0.99))
	navs := dur(spNavigate)
	set("browser.navigate_ms_p50", "ms", navs.ms(0.50))

	polls := dur(spPoll)
	set("core.agent.poll_work_us_p50", "us", polls.us(0.50))
	set("core.agent.poll_work_us_p99", "us", polls.us(0.99))
	set("core.agent.change_to_respond_us_p50", "us", dur(spChangeToResp).us(0.50))
	set("core.agent.park_ms_p50", "ms", dur(spPark).ms(0.50))
	set("core.agent.requests_per_change", "count", float64(d.requests)/ops)
	set("core.agent.empty_poll_frac", "ratio", ratio(float64(d.emptyPolls), float64(d.polls)))
	set("core.agent.resp_kb_per_change", "KB", float64(d.respB)/1024/ops)
	objs := dur(spObj)
	set("core.agent.obj_us_p50", "us", objs.us(0.50))
	set("core.agent.obj_requests_per_nav", "count", ratio(float64(len(objs)), float64(len(navs))))
	set("core.agent.action_us_p50", "us", dur(spAction).us(0.50))
	set("core.agent.builds_per_change", "count", float64(d.builds)/ops)
	set("core.agent.diffs_per_change", "count", float64(d.diffs)/ops)
	set("core.agent.delta_hit_frac", "ratio", ratio(float64(d.snip.DeltaPolls), float64(d.snip.ContentPolls)))
	set("core.agent.wake_fanouts_per_change", "count", float64(d.wakes)/ops)
	set("core.agent.frames_out_per_change", "count", float64(d.framesOut)/ops)
	set("core.agent.outbox_depth_max", "count", float64(sB.outboxMax.Load()))
	set("core.agent.park_refusals", "count", float64(d.parkRefusals))
	set("core.agent.join_refusals", "count", float64(d.joinRefusals))
	set("core.agent.stale_kicks", "count", float64(d.staleKicks))
	set("core.agent.channel_fallbacks", "count", float64(d.chanFallbacks))
	set("core.agent.duplicate_actions", "count", float64(d.dupAction))

	set("core.content.build_us_p50", "us", dur(spBuild).us(0.50))
	set("core.content.snapshot_kb_p50", "KB", rs.snapshotBytes.quantile(0.50)/1024)
	set("dom.diff_us_p50", "us", dur(spDiff).us(0.50))
	set("dom.patches_per_change", "count", ratio(float64(rs.patches), float64(rs.diffs)))
	set("core.xmlmsg.marshal_us_p50", "us", dur(spMarshal).us(0.50))
	set("core.xmlmsg.unmarshal_us_p50", "us", dur(spUnmarshal).us(0.50))
	set("core.deltamsg.unmarshal_us_p50", "us", dur(spDeltaUnmarshal).us(0.50))
	set("core.deltamsg.bytes_p50", "bytes", rs.deltaBytes.quantile(0.50))

	set("core.snippet.apply_us_p50", "us", dur(spApply).us(0.50))
	set("core.snippet.recv_to_apply_us_p50", "us", dur(spRecvToApply).us(0.50))
	set("core.snippet.apply_delta_us_p50", "us", dur(spApplyDelta).us(0.50))
	set("core.snippet.polls_per_change", "count", float64(d.snip.Polls)/ops)
	set("core.snippet.objects_from_agent_frac", "ratio",
		ratio(float64(mB.post.snip.ObjectsFromAgent), float64(mB.post.snip.ObjectFetches)))
	set("core.snippet.poll_failures", "count", float64(d.snip.PollFailures))
	set("core.snippet.delta_failures", "count", float64(d.snip.DeltaFailures))
	set("core.snippet.rejoins", "count", float64(d.snip.Rejoins))
	set("core.snippet.duplex_fallbacks", "count", float64(d.snip.DuplexFallbacks))
	set("core.snippet.action_fallbacks", "count", float64(d.snip.ActionFallbacks))

	set("core.auth.verify_us_p50", "us", dur(spVerify).us(0.50))
	set("core.actions.decode_us_p50", "us", dur(spDecode).us(0.50))
	set("core.actions.push_rtt_us_p50", "us", dur(spPush).us(0.50))

	set("httpwire.write_to_read_us_p50", "us", dur(spWriteToRead).us(0.50))
	set("httpwire.down_kb_per_change", "KB", float64(d.wireDown)/1024/fleet/ops)
	set("httpwire.up_kb_per_change", "KB", float64(d.wireUp)/1024/fleet/ops)
	set("httpwire.conns_opened", "count", float64(d.conns))

	set("runtime.alloc_kb_per_change", "KB", d.allocBytes/1024/ops)
	set("runtime.mallocs_per_change", "count", d.allocObjs/ops)
	set("runtime.gc_cpu_frac", "ratio", ratio(d.gcCPU, d.totalCPU))
	set("runtime.sched_latency_us_p99", "us", d.schedQuantile(0.99)*1e6)

	set("loadgen.late_us_p99", "us", mA.dr.late.us(0.99))
	set("trace.overhead_frac", "ratio", mB.sync.q(0.50)/mA.sync.q(0.50)-1)

	res.env["origin_dials"] = sA.foreignDials.Load() + sB.foreignDials.Load()
	res.env["stale_doctimes"] = sA.staleDocTimes.Load() + sB.staleDocTimes.Load()
	res.env["trace_file"] = tracePath
	res.env["spans"] = tr.String()
	res.env["unmeasured"] = unmeasured
	res.env["failed_frac"] = ratio(float64(res.Failed), float64(res.Attempted))
	res.finish()
	return nil
}
