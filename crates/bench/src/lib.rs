//! Shared helpers for the `paper` table regenerator.

use qpredict_core::paper::Scale;

/// Parse a `--jobs N` style scale argument (`full` or a job count).
pub fn parse_scale(s: &str) -> Option<Scale> {
    if s.eq_ignore_ascii_case("full") {
        return Some(Scale::Full);
    }
    s.parse::<usize>().ok().map(Scale::Jobs)
}

/// Render a duration in seconds human-readably.
pub fn human_secs(s: f64) -> String {
    if s >= 60.0 {
        format!("{:.1} min", s / 60.0)
    } else {
        format!("{s:.1} s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(parse_scale("full"), Some(Scale::Full));
        assert_eq!(parse_scale("FULL"), Some(Scale::Full));
        assert_eq!(parse_scale("2500"), Some(Scale::Jobs(2500)));
        assert_eq!(parse_scale("x"), None);
    }

    #[test]
    fn human_times() {
        assert_eq!(human_secs(5.0), "5.0 s");
        assert_eq!(human_secs(120.0), "2.0 min");
    }
}
