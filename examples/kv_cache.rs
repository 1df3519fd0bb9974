//! memcached-style cache over a concurrent persistent FPTree, served over
//! real TCP with the memcached text protocol (paper §6.4's integration).
//!
//! ```sh
//! cargo run --example kv_cache
//! ```

use std::sync::Arc;

use fptree_suite::core::concurrent::ConcurrentFPTreeVar;
use fptree_suite::core::TreeConfig;
use fptree_suite::kvcache::server::{Client, ServerBuilder};
use fptree_suite::kvcache::{Cache, KvCache};
use fptree_suite::pmem::{PmemPool, PoolOptions, ROOT_SLOT};

fn main() {
    // Persistent index: string keys live in SCM, values are item handles.
    let pool = Arc::new(PmemPool::create(PoolOptions::direct(128 << 20)).expect("pool"));
    let index = Arc::new(ConcurrentFPTreeVar::create(
        pool,
        TreeConfig::fptree_concurrent_var(),
        ROOT_SLOT,
    ));
    let cache = Arc::new(KvCache::new(index));

    // A real TCP server speaking the memcached text protocol: two reactor
    // threads, each serving the connections dealt to it end to end.
    let server = ServerBuilder::new("127.0.0.1:0")
        .max_connections(64)
        .worker_threads(2)
        .serve(Arc::clone(&cache) as Arc<dyn Cache>)
        .expect("bind");
    println!("serving memcached protocol on {}", server.addr);

    // Four concurrent clients hammer SET/GET over loopback.
    let addr = server.addr;
    let handles: Vec<_> = (0..4)
        .map(|t: u32| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                for i in 0..2_000u32 {
                    let key = format!("session:{t}:{i}");
                    c.set(&key, format!("payload-{i}").as_bytes()).expect("set");
                }
                for i in 0..2_000u32 {
                    let key = format!("session:{t}:{i}");
                    let v = c.get(&key).expect("get").expect("present");
                    assert_eq!(v, format!("payload-{i}").into_bytes());
                }
                println!("client {t}: 2000 SETs + 2000 GETs verified");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    println!("cache holds {} keys; shutting down", cache.len());
    server.shutdown();
}
