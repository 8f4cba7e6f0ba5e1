//! A second bin times itself but writes no CSV: the stopwatch is live
//! code with no route to a determinism sink.
fn main() {
    let _elapsed = stopwatch();
}
