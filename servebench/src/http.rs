//! A minimal HTTP/1.1 client for the service's wire protocol: one
//! request per connection, `Connection: close`, JSON bodies.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A response: status code and raw body.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// Opens a connection and writes one request; the reply is read with
/// [`receive`]. Splitting the two lets an open-loop sender keep its
/// schedule while another thread waits for answers.
pub fn send(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: servebench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    Ok(stream)
}

/// Reads the whole response of a request sent with [`send`].
pub fn receive(mut stream: TcpStream) -> io::Result<Reply> {
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let status = raw
        .get(9..12)
        .and_then(|s| std::str::from_utf8(s).ok())
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no status line"))?;
    let body_at = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map_or(raw.len(), |p| p + 4);
    Ok(Reply {
        status,
        body: raw.split_off(body_at),
    })
}

/// `POST path` with a JSON body.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> io::Result<Reply> {
    receive(send(addr, "POST", path, body)?)
}

/// `GET /metrics` as text.
pub fn scrape(addr: SocketAddr) -> io::Result<String> {
    let reply = receive(send(addr, "GET", "/metrics", "")?)?;
    String::from_utf8(reply.body).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Sum of every sample of `name` (any labels) in Prometheus text.
pub fn metric(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            let bare = key.split('{').next()?;
            (bare == name).then(|| value.parse::<f64>().ok()).flatten()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::metric;

    #[test]
    fn metric_sums_labelled_samples() {
        let text = "# HELP x y\nuots_a_total 3\nuots_a_total{s=\"1\"} 2\nuots_ab_total 9\n";
        assert_eq!(metric(text, "uots_a_total"), 5.0);
        assert_eq!(metric(text, "missing"), 0.0);
    }
}
