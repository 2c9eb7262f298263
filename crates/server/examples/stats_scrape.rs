//! Print one STATS scrape of a running server as JSON on stdout.
//!
//! Useful for reading serving counters while a load runs elsewhere, e.g.
//! the inline hit share `server.inline_gets / server.gets`:
//!
//! ```sh
//! cargo run --release -p dcs-server --example stats_scrape -- 127.0.0.1:PORT
//! ```
//!
//! The scrape travels on its own connection and is answered by that
//! connection's reader, so it never queues behind shard work.

use dcs_server::{Client, ClientConfig};

fn main() {
    let Some(addr) = std::env::args().nth(1) else {
        eprintln!("usage: stats_scrape <host:port>");
        std::process::exit(2);
    };
    let addr = addr.parse().unwrap_or_else(|e| {
        eprintln!("stats_scrape: bad address {addr}: {e}");
        std::process::exit(2);
    });
    let client = Client::connect(
        addr,
        ClientConfig {
            connections: 1,
            ..ClientConfig::default()
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("stats_scrape: connect {addr}: {e}");
        std::process::exit(1);
    });
    match client.stats() {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("stats_scrape: {e}");
            std::process::exit(1);
        }
    }
    client.close();
}
