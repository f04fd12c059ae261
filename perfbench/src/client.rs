//! A minimal HTTP/1.1 keep-alive client for `/brief`: one request in
//! flight per connection, `Content-Length` framing, and a reconnect when
//! the server closes the connection.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed response.
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `X-Cache: hit` was present.
    pub cache_hit: bool,
    /// The `Server-Timing` header value, when asked for.
    pub server_timing: Option<String>,
    /// The response body.
    pub body: Vec<u8>,
}

/// A keep-alive connection that reconnects on demand.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    /// A connection to `addr`, opened lazily.
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, stream: None, buf: Vec::with_capacity(16 * 1024) }
    }

    fn stream(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(60)))?;
            self.stream = Some(s);
            self.buf.clear();
        }
        Ok(self.stream.as_mut().expect("connected above"))
    }

    /// `POST /brief` with `html` as the body.
    pub fn brief(&mut self, html: &[u8], want_timing: bool) -> io::Result<Response> {
        let head = format!(
            "POST /brief HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
            html.len()
        );
        self.exchange(head.as_bytes(), html, want_timing)
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        let head = format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n");
        self.exchange(head.as_bytes(), &[], false)
    }

    fn exchange(
        &mut self,
        head: &[u8],
        body: &[u8],
        want_timing: bool,
    ) -> io::Result<Response> {
        let r = self.try_exchange(head, body, want_timing);
        if r.is_err() {
            self.stream = None;
        }
        r
    }

    fn try_exchange(
        &mut self,
        head: &[u8],
        body: &[u8],
        want_timing: bool,
    ) -> io::Result<Response> {
        let s = self.stream()?;
        s.write_all(head)?;
        s.write_all(body)?;
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            self.fill()?;
        };
        let text = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response head")
        })?;
        let mut lines = text.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let (mut len, mut close, mut cache_hit, mut server_timing) = (None, false, false, None);
        for line in lines {
            let Some((name, value)) = line.split_once(':') else { continue };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                len = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            } else if name.eq_ignore_ascii_case("x-cache") {
                cache_hit = value == "hit";
            } else if want_timing && name.eq_ignore_ascii_case("server-timing") {
                server_timing = Some(value.to_string());
            }
        }
        let len = len.ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "response without Content-Length")
        })?;
        while self.buf.len() < head_end + len {
            self.fill()?;
        }
        let body = self.buf[head_end..head_end + len].to_vec();
        self.buf.drain(..head_end + len);
        if close {
            self.stream = None;
        }
        Ok(Response { status, cache_hit, server_timing, body })
    }

    fn fill(&mut self) -> io::Result<()> {
        let s = self.stream.as_mut().expect("fill only runs while connected");
        let mut chunk = [0u8; 16 * 1024];
        let n = s.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

/// Milliseconds per stage from a `Server-Timing` value
/// (`stage;dur=<ms>, …`); stages not listed read 0.
pub fn stage_ms(server_timing: &str, stage: &str) -> f64 {
    server_timing
        .split(',')
        .filter_map(|part| part.trim().split_once(";dur="))
        .find(|(name, _)| *name == stage)
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_server_timing() {
        let h = "queue_wait;dur=0.012, parse;dur=0.004, batch_wait;dur=3.500, model;dur=5.250";
        assert_eq!(stage_ms(h, "model"), 5.25);
        assert_eq!(stage_ms(h, "queue_wait"), 0.012);
        assert_eq!(stage_ms(h, "serialize"), 0.0);
    }
}
