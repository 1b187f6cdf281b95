//! The per-layer metrics, computed from the traced run's spans.

use crate::spans::Span;
use crate::{json_num, json_str, median, Tally};

/// Every per-layer metric (the median over the run's spans of each
/// name), the traced verb totals and the tally, as one JSON object.
pub fn report(spans: &[Span], tally: &Tally) -> String {
    let per = |name: &str, value: &dyn Fn(&Span) -> f64| {
        median(spans.iter().filter(|s| s.name == name).map(value).collect())
    };
    let ms = |name: &str| per(name, &Span::ms);
    let maps = |name: &str| per(name, &|s: &Span| s.count("accesses") / s.ms() / 1e3);
    let ns_per_refill = |name: &str| per(name, &|s: &Span| s.ms() * 1e6 / s.count("refills"));
    let per_access = |name: &str| per(name, &|s: &Span| s.ms() / s.count("accesses"));
    let count = |name: &str, key: &'static str| per(name, &move |s: &Span| s.count(key));
    let (replay, profile, control) = (ms("replay"), ms("profile"), ms("control"));
    let cli = [ms("cli.profile"), ms("cli.replay_qos"), ms("cli.control")];
    // What each verb calls in-process, each after its own cold filter:
    // profile = pass + sidecar (hash and write) + solve; replay --qos =
    // sidecar read + solve + replay; the controller = the controlled
    // replay.
    let children = 3.0 * ms("filter")
        + profile
        + ms("curves.hash")
        + ms("curves.write")
        + ms("solve")
        + ms("curves.read")
        + ms("solve")
        + replay
        + control;
    let decode = ms("codec.decode");
    let metrics: Vec<(&str, f64, &str)> = vec![
        ("codec.decode_ms", decode, "ms"),
        ("codec.decode_maps", maps("codec.decode"), "Macc/s"),
        (
            "codec.bytes_per_access",
            per("codec.decode", &|s: &Span| {
                s.count("bytes") / s.count("accesses")
            }),
            "B/access",
        ),
        ("curves.hash_ms", ms("curves.hash"), "ms"),
        ("curves.read_ms", ms("curves.read"), "ms"),
        ("curves.write_ms", ms("curves.write"), "ms"),
        ("filter.ms", ms("filter"), "ms"),
        ("filter.maps", maps("filter"), "Macc/s"),
        ("filter.runs", count("filter", "runs"), "count"),
        (
            "filter.l2_bound_frac",
            per("filter", &|s: &Span| {
                s.count("refills") / s.count("accesses")
            }),
            "fraction",
        ),
        ("replay.ms", replay, "ms"),
        ("replay.ns_per_refill", ns_per_refill("replay"), "ns"),
        (
            "replay.mix_over_solo_x",
            per_access("replay.shared") / per_access("replay.solo"),
            "ratio",
        ),
        (
            "replay.lanes2_speedup",
            replay / ms("replay.lanes2"),
            "ratio",
        ),
        ("profile.ms", profile, "ms"),
        ("profile.ns_per_refill", ns_per_refill("profile"), "ns"),
        (
            "profile.lanes2_speedup",
            profile / ms("profile.lanes2"),
            "ratio",
        ),
        ("solve.ms", ms("solve"), "ms"),
        ("solve.entities", count("solve", "entities"), "count"),
        ("control.ms", control, "ms"),
        ("control.windows", count("control", "windows"), "count"),
        ("control.switches", count("control", "switches"), "count"),
        (
            "control.flushed_lines",
            count("control", "flushed_lines"),
            "lines",
        ),
        ("control.cost", count("control", "cost"), "lines"),
        ("control.overhead_x", control / replay, "ratio"),
        ("sweep.ms", ms("sweep"), "ms"),
        ("cli.profile_ms", cli[0], "ms"),
        ("cli.replay_qos_ms", cli[1], "ms"),
        ("cli.control_ms", cli[2], "ms"),
        ("cli.self_ms", cli.iter().sum::<f64>() - children, "ms"),
        ("wire.rtt_us", ms("wire.rtt") * 1e3, "us"),
        ("store.put_ms", ms("store.put"), "ms"),
        ("store.get_ms", ms("store.get"), "ms"),
        ("eval.hit_ms", ms("eval.hit"), "ms"),
        ("eval.miss_ms", ms("eval.miss"), "ms"),
        ("queue.wait_ms", ms("client.miss") - ms("eval.miss"), "ms"),
        (
            "serve.hit_frac",
            per("serve.stats", &|s: &Span| {
                s.count("hits") / (s.count("hits") + s.count("misses"))
            }),
            "fraction",
        ),
        ("record.ms", ms("record"), "ms"),
        ("record.maps", maps("record"), "Macc/s"),
        ("gen.ms", ms("gen"), "ms"),
    ];
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    // Traced verb totals, to set against the untraced end-to-end run: a
    // `compmem` process decodes its trace, then runs the verb.
    let totals = [
        ("profile", decode + cli[0]),
        ("replay_qos", decode + cli[1]),
        ("control", decode + cli[2]),
        ("hit", ms("client.hit")),
    ];
    let totals: Vec<String> = totals
        .iter()
        .map(|(name, value)| format!("{}: {}", json_str(name), json_num(*value)))
        .collect();
    format!(
        "{{\"metrics\": {{{}}}, \"totals_ms\": {{{}}}, \"spans\": {}, {}}}",
        body.join(", "),
        totals.join(", "),
        spans.len(),
        tally.json()
    )
}
