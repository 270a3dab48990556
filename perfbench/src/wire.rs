//! The benchmark's own HTTP/1.1 client: one keep-alive `TcpStream`,
//! requests written whole, responses framed by `Content-Length`.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One response as read off the wire.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    /// Bytes of head and body together.
    pub wire_len: usize,
}

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Conn { stream, buf: Vec::with_capacity(16 * 1024) })
    }

    /// Writes one complete request and reads its response.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.stream.write_all(request)?;
        self.read_reply()
    }

    pub fn get(&mut self, path: &str) -> io::Result<Reply> {
        self.exchange(format!("GET {path} HTTP/1.1\r\nhost: perfbench\r\n\r\n").as_bytes())
    }

    fn read_reply(&mut self) -> io::Result<Reply> {
        let head_end = loop {
            if let Some(at) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break at + 4;
            }
            self.fill()?;
        };
        let (status, body_len) = parse_head(&self.buf[..head_end])?;
        while self.buf.len() < head_end + body_len {
            self.fill()?;
        }
        let body = self.buf[head_end..head_end + body_len].to_vec();
        self.buf.drain(..head_end + body_len);
        Ok(Reply { status, body, wire_len: head_end + body_len })
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let got = self.stream.read(&mut chunk)?;
        if got == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
        }
        self.buf.extend_from_slice(&chunk[..got]);
        Ok(())
    }
}

/// Status code and `Content-Length` of a response head.
fn parse_head(head: &[u8]) -> io::Result<(u16, usize)> {
    let bad = |why: &str| io::Error::new(io::ErrorKind::InvalidData, why.to_string());
    let text = std::str::from_utf8(head).map_err(|_| bad("response head is not UTF-8"))?;
    let mut lines = text.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad("no status line"))?;
    let mut len = 0;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                len = value.trim().parse().map_err(|_| bad("bad content-length"))?;
            }
        }
    }
    Ok((status, len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_length() {
        let head = b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 12\r\nx: y\r\n\r\n";
        assert_eq!(parse_head(head).unwrap(), (503, 12));
        assert_eq!(parse_head(b"HTTP/1.1 200 OK\r\n\r\n").unwrap(), (200, 0));
        assert!(parse_head(b"garbage\r\n\r\n").is_err());
    }
}
