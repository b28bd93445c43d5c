//! Peak-RSS measurement shared by the `bench`, `guarantees`, and `scale`
//! commands.
//!
//! Linux exposes the high-water mark of a process's resident set as the
//! `VmHWM` line of `/proc/self/status`; that is exactly the "how much
//! memory did this run ever need" number the perf trajectory files record.
//! The value is cumulative over the process lifetime — a command that runs
//! several workloads reports the largest of them — which the JSON consumers
//! document.

/// Peak resident set size of the current process in bytes, or `None` where
/// the kernel does not expose it (non-Linux, or a locked-down `/proc`).
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

/// Parses the `VmHWM` line (reported in kB) out of `/proc/self/status`
/// contents.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Formats an optional byte count as a JSON value: the number, or `null`.
pub fn json_opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".into(), |b| b.to_string())
}

/// Renders the peak-RSS fields every `BENCH_*.json` emitter embeds:
/// `"peak_rss_bytes"` plus, when the value is unavailable, a
/// `"peak_rss_note"` naming why (`VmHWM` is Linux-only, so off-Linux runs
/// record an explicit `null` with the platform spelled out rather than a
/// silently absent metric).
pub fn peak_rss_json_fields() -> String {
    render_peak_rss_fields(
        peak_rss_bytes(),
        cfg!(target_os = "linux"),
        std::env::consts::OS,
    )
}

/// Testable core of [`peak_rss_json_fields`].
fn render_peak_rss_fields(peak: Option<u64>, is_linux: bool, os: &str) -> String {
    match peak {
        Some(bytes) => format!("\"peak_rss_bytes\": {bytes}"),
        None if is_linux => "\"peak_rss_bytes\": null,\n  \"peak_rss_note\": \
                             \"VmHWM missing from /proc/self/status\""
            .into(),
        None => format!(
            "\"peak_rss_bytes\": null,\n  \"peak_rss_note\": \
             \"unavailable on {os}: VmHWM requires linux /proc\""
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_line() {
        let status = "Name:\ttest\nVmPeak:\t  123 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(2048 * 1024));
    }

    #[test]
    fn missing_line_is_none() {
        assert_eq!(parse_vm_hwm("Name:\ttest\n"), None);
    }

    #[test]
    fn malformed_value_is_none() {
        assert_eq!(parse_vm_hwm("VmHWM:\tpotato kB\n"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn linux_reports_a_positive_peak() {
        let rss = peak_rss_bytes().expect("VmHWM available on Linux");
        assert!(rss > 1024 * 1024, "a test process uses at least a MiB");
    }

    #[test]
    fn json_formatting() {
        assert_eq!(json_opt_u64(None), "null");
        assert_eq!(json_opt_u64(Some(42)), "42");
    }

    #[test]
    fn present_peak_renders_a_bare_number_field() {
        assert_eq!(
            render_peak_rss_fields(Some(2048), true, "linux"),
            "\"peak_rss_bytes\": 2048"
        );
    }

    #[test]
    fn non_linux_records_explicit_null_with_platform_note() {
        let fields = render_peak_rss_fields(None, false, "macos");
        assert!(fields.starts_with("\"peak_rss_bytes\": null"));
        assert!(
            fields.contains("unavailable on macos: VmHWM requires linux /proc"),
            "platform note must name the OS: {fields}"
        );
    }

    #[test]
    fn linux_without_vmhwm_notes_the_missing_proc_line() {
        let fields = render_peak_rss_fields(None, true, "linux");
        assert!(fields.starts_with("\"peak_rss_bytes\": null"));
        assert!(fields.contains("VmHWM missing from /proc/self/status"));
    }

    #[test]
    fn emitter_fields_are_valid_json_fragments() {
        // Whatever platform the tests run on, the rendered fragment must
        // embed into `{ ... }` as valid JSON.
        let json = format!("{{\n  {}\n}}\n", peak_rss_json_fields());
        assert!(json.contains("\"peak_rss_bytes\""));
        let colons = json.matches(':').count();
        assert!(colons == 1 || colons == 2);
    }
}
