//! Timing helpers. A run is made of rounds; every repeated operation is
//! timed once per round, so its samples are spread over the whole run
//! instead of bunched into one second of it.

use crate::stats::{median, quartiles};
use crate::trace::Recorder;
use std::time::Instant;

/// Run `f` once; return its result and the seconds it took.
pub fn secs<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// The seconds one operation took in each round.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Time `f` inside a span and keep the sample.
    pub fn time<R>(
        &mut self,
        rec: &mut Recorder<'_>,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = rec.begin(layer, name, None);
        let (out, t) = secs(f);
        rec.end(open);
        self.0.push(t);
        out
    }

    /// Keep a sample timed elsewhere.
    pub fn push(&mut self, secs: f64) {
        self.0.push(secs);
    }

    /// The figure reported for the operation: the **lower quartile** of
    /// its rounds. Other tenants of this sandbox only ever add time, in
    /// bursts of about a second that shift a whole round by 10-30 %; the
    /// lower quartile tracks the machine's own speed through them, where
    /// the median moves with however many rounds the neighbours hit. It
    /// is a quartile and not the minimum so that one lucky round decides
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics when no round was timed: counts are fixed and nonzero, so
    /// that is a bug in the caller.
    pub fn typical(&self) -> f64 {
        match self.0.len() {
            0 => panic!("an operation was never timed"),
            1 => self.0[0],
            _ => quartiles(&self.0)[0],
        }
    }

    /// The plain median of the rounds (set-up times use it).
    pub fn median(&self) -> f64 {
        median(&self.0)
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Samples(iter.into_iter().collect())
    }
}

/// The typical seconds of `run` over `reps` back-to-back repetitions,
/// after one untimed warm-up — for the ungated side measurements of a
/// traced run, which are not spread over rounds. `prepare` makes each
/// repetition's input outside the timed region; results are dropped
/// outside it too. Returns the figure and the last result, for its
/// oracle check.
pub fn reps<I, R>(
    rec: &mut Recorder<'_>,
    layer: &'static str,
    name: &'static str,
    reps: usize,
    mut prepare: impl FnMut() -> I,
    mut run: impl FnMut(I) -> R,
) -> (f64, R) {
    assert!(reps > 0, "a timed quantity needs at least one repetition");
    drop(run(prepare()));
    let mut times = Samples::default();
    let mut last = None;
    for _ in 0..reps {
        let input = prepare();
        drop(last.take());
        last = Some(times.time(rec, layer, name, || run(input)));
    }
    (times.typical(), last.expect("reps > 0"))
}

/// Median seconds of `setup` over `reps` runs; returns the median and
/// the product of the last run (the one the phase goes on to use).
pub fn setups<R>(
    rec: &mut Recorder<'_>,
    name: &'static str,
    reps: usize,
    mut setup: impl FnMut(usize) -> R,
) -> (f64, R) {
    let mut times = Samples::default();
    let mut last = None;
    for i in 0..reps {
        drop(last.take());
        last = Some(times.time(rec, "driver", name, || setup(i)));
    }
    (times.median(), last.expect("reps > 0"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typical_is_the_lower_quartile_and_ignores_disturbed_rounds() {
        let mut s = Samples::default();
        // 15 rounds at 100 ms, six of them hit by a neighbour
        for i in 0..15 {
            s.push(if i % 5 < 2 {
                0.130
            } else {
                0.100 + f64::from(i) * 1e-4
            });
        }
        assert!((s.typical() - 0.100).abs() < 0.002, "{}", s.typical());
        assert!(s.median() < 0.110);
        let mut one = Samples::default();
        one.push(0.5);
        assert_eq!(one.typical(), 0.5);
    }
}
