//! Seeded violations: a detached worker and a named one.

use std::thread;

pub fn start_workers(work: Work) {
    thread::spawn(move || work.run());
    let _join = thread::Builder::new()
        .name("worker".into())
        .spawn(move || ());
}
