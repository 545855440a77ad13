//! The client side of the service's wire protocol: HTTP/1.1 over
//! loopback TCP, one connection per request, `Connection: close`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A request that takes longer than this counts as a failed op.
pub const TIMEOUT: Duration = Duration::from_secs(20);

pub struct Reply {
    pub status: u16,
    pub body: String,
    /// Time to establish the TCP connection.
    pub connect: Duration,
    /// Connect through last response byte.
    pub total: Duration,
}

/// One blocking request/response cycle. Every failure mode — refused
/// connection, timeout, truncated or malformed response — is an `Err`.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
    let start = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    let connect = start.elapsed();
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    stream.set_nodelay(true)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: benchmark\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    // One write, so head and body leave in one segment.
    stream.write_all(&[head.as_bytes(), body.as_bytes()].concat())?;
    let mut raw = Vec::with_capacity(2048);
    stream.read_to_end(&mut raw)?;
    let total = start.elapsed();
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let text = String::from_utf8(raw).map_err(|_| bad("response is not UTF-8"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad("response has no header terminator"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| bad("response has no status code"))?;
    Ok(Reply {
        status,
        body: body.to_string(),
        connect,
        total,
    })
}

pub fn post(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<Reply> {
    request(addr, "POST", path, body)
}

pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<Reply> {
    request(addr, "GET", path, "")
}

/// Sums every sample of one family in a Prometheus text exposition
/// (labelled series of the same name add up). `None` when absent.
pub fn prom_value(text: &str, name: &str) -> Option<f64> {
    let mut total = None;
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(name) else {
            continue;
        };
        let value = match rest.as_bytes().first() {
            Some(b' ') => rest.trim(),
            Some(b'{') => match rest.split_once("} ") {
                Some((_, v)) => v.trim(),
                None => continue,
            },
            _ => continue, // a longer name sharing this prefix
        };
        if let Ok(v) = value.parse::<f64>() {
            *total.get_or_insert(0.0) += v;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prom_value_sums_labelled_series_and_ignores_longer_names() {
        let text = "# HELP a_total x\na_total 3\na_total_more 100\n\
                    b{shard=\"0\"} 1.5\nb{shard=\"1\"} 2\nb_sum 9\n";
        assert_eq!(prom_value(text, "a_total"), Some(3.0));
        assert_eq!(prom_value(text, "b"), Some(3.5));
        assert_eq!(prom_value(text, "b_sum"), Some(9.0));
        assert_eq!(prom_value(text, "missing"), None);
    }
}
