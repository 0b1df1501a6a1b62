//! Simulation calendar: January 1 – April 21, 2020.
//!
//! Both end-to-end datasets are "emulated from January 1, 2020 to April 21,
//! 2020" (§5.1). Dates are day indices into that range; windows divide the
//! range evenly (the paper defaults to 8 windows and ablates 4).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A date within the simulated range, as a day offset from 2020-01-01.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SimDate(u16);

/// Cumulative days at the start of each month of 2020 (a leap year).
const MONTH_STARTS: [u16; 5] = [0, 31, 60, 91, 121];

impl SimDate {
    /// Total number of days in the simulated range (Jan 1 ..= Apr 21).
    pub const TOTAL_DAYS: u16 = 112;

    /// Creates a date from a day offset.
    ///
    /// # Panics
    ///
    /// Panics if `day_index >= TOTAL_DAYS`.
    pub fn new(day_index: u16) -> Self {
        assert!(
            day_index < Self::TOTAL_DAYS,
            "day {day_index} outside simulated range"
        );
        SimDate(day_index)
    }

    /// The day offset from 2020-01-01.
    pub fn day_index(self) -> u16 {
        self.0
    }

    /// Month of the year, 1-based (1 = January .. 4 = April).
    pub fn month(self) -> u8 {
        match self.0 {
            d if d < MONTH_STARTS[1] => 1,
            d if d < MONTH_STARTS[2] => 2,
            d if d < MONTH_STARTS[3] => 3,
            _ => 4,
        }
    }

    /// Day of the month, 1-based.
    pub fn day_of_month(self) -> u8 {
        let m = self.month() as usize;
        (self.0 - MONTH_STARTS[m - 1] + 1) as u8
    }

    /// All simulated days in order.
    pub fn all() -> impl Iterator<Item = SimDate> {
        (0..Self::TOTAL_DAYS).map(SimDate)
    }

    /// Which of `windows` equal time windows this date falls in (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `windows` is zero.
    pub fn window(self, windows: usize) -> usize {
        assert!(windows > 0, "window count must be nonzero");
        let w = (self.0 as usize * windows) / Self::TOTAL_DAYS as usize;
        w.min(windows - 1)
    }

    /// The half-open day range `[start, end)` of window `w` out of `windows`.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is zero or `w >= windows`.
    pub fn window_range(w: usize, windows: usize) -> (u16, u16) {
        assert!(
            windows > 0 && w < windows,
            "invalid window {w} of {windows}"
        );
        let total = Self::TOTAL_DAYS as usize;
        let start = (w * total) / windows;
        let end = ((w + 1) * total) / windows;
        (start as u16, end as u16)
    }
}

impl fmt::Display for SimDate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "2020-{:02}-{:02}", self.month(), self.day_of_month())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_dates_format_correctly() {
        assert_eq!(SimDate::new(0).to_string(), "2020-01-01");
        assert_eq!(SimDate::new(17).to_string(), "2020-01-18");
        assert_eq!(SimDate::new(31).to_string(), "2020-02-01");
        assert_eq!(SimDate::new(59).to_string(), "2020-02-29"); // leap year
        assert_eq!(SimDate::new(60).to_string(), "2020-03-01");
        assert_eq!(SimDate::new(111).to_string(), "2020-04-21");
    }

    #[test]
    #[should_panic(expected = "outside simulated range")]
    fn out_of_range_rejected() {
        let _ = SimDate::new(112);
    }

    #[test]
    fn windows_partition_the_range() {
        for windows in [1usize, 4, 8] {
            let mut counts = vec![0usize; windows];
            for d in SimDate::all() {
                counts[d.window(windows)] += 1;
            }
            assert_eq!(counts.iter().sum::<usize>(), 112);
            let max = counts.iter().max().unwrap();
            let min = counts.iter().min().unwrap();
            assert!(max - min <= 1, "uneven windows {counts:?}");
        }
    }

    #[test]
    fn window_range_agrees_with_window() {
        for w in 0..8 {
            let (start, end) = SimDate::window_range(w, 8);
            for d in start..end {
                assert_eq!(SimDate::new(d).window(8), w);
            }
        }
    }

    #[test]
    fn all_yields_total_days() {
        assert_eq!(SimDate::all().count(), 112);
    }
}
