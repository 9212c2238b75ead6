//! HTTP/1.1 message codec (requests and responses, Content-Length framing).

use std::io::{BufRead, Write};

/// Maximum accepted header block (defense against unbounded reads).
const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Maximum accepted body (larger than any layer this simulation stores).
const MAX_BODY_BYTES: usize = 1 << 31;

/// Wire-level errors.
#[derive(Debug)]
pub enum WireError {
    Io(std::io::Error),
    /// Malformed start line or header.
    Malformed(&'static str),
    /// Header block or body exceeded limits.
    TooLarge,
    /// Peer closed before a complete message arrived.
    UnexpectedEof,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io: {e}"),
            WireError::Malformed(what) => write!(f, "malformed http: {what}"),
            WireError::TooLarge => f.write_str("http message too large"),
            WireError::UnexpectedEof => f.write_str("connection closed mid-message"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// An HTTP request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    pub method: String,
    /// Path including query string, e.g. `/v2/nginx/manifests/latest`.
    pub target: String,
    /// Lower-cased header names.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// Builds a GET request.
    pub fn get(target: &str) -> Request {
        Request { method: "GET".into(), target: target.into(), headers: Vec::new(), body: Vec::new() }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Request {
        self.headers.push((name.to_ascii_lowercase(), value.to_string()));
        self
    }

    /// First value of a header (name is case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// Serializes onto a writer.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        write!(w, "{} {} HTTP/1.1\r\n", self.method, self.target)?;
        for (n, v) in &self.headers {
            write!(w, "{n}: {v}\r\n")?;
        }
        write!(w, "content-length: {}\r\n\r\n", self.body.len())?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

/// An HTTP response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub reason: String,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    /// Builds a response with a body.
    pub fn new(status: u16, body: Vec<u8>) -> Response {
        let reason = match status {
            200 => "OK",
            401 => "Unauthorized",
            404 => "Not Found",
            400 => "Bad Request",
            405 => "Method Not Allowed",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Response",
        };
        Response { status, reason: reason.into(), headers: Vec::new(), body }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_ascii_lowercase(), value.to_string()));
        self
    }

    /// First value of a header.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// Serializes onto a writer.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        write!(w, "HTTP/1.1 {} {}\r\n", self.status, self.reason)?;
        for (n, v) in &self.headers {
            write!(w, "{n}: {v}\r\n")?;
        }
        write!(w, "content-length: {}\r\n\r\n", self.body.len())?;
        w.write_all(&self.body)?;
        w.flush()
    }

    /// Serializes a *lying* response: headers promise the full body
    /// (`content-length: body.len()`) but only the first `keep` bytes are
    /// written. The fault-injecting server uses this to model a connection
    /// cut mid-transfer; readers see [`WireError::UnexpectedEof`].
    pub fn write_truncated_to(&self, w: &mut impl Write, keep: usize) -> std::io::Result<()> {
        write!(w, "HTTP/1.1 {} {}\r\n", self.status, self.reason)?;
        for (n, v) in &self.headers {
            write!(w, "{n}: {v}\r\n")?;
        }
        write!(w, "content-length: {}\r\n\r\n", self.body.len())?;
        w.write_all(&self.body[..keep.min(self.body.len())])?;
        w.flush()
    }
}

fn read_line(r: &mut impl BufRead, budget: &mut usize) -> Result<String, WireError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte)? {
            0 => {
                if line.is_empty() {
                    return Err(WireError::UnexpectedEof);
                }
                break;
            }
            _ => {
                if byte[0] == b'\n' {
                    break;
                }
                if byte[0] != b'\r' {
                    line.push(byte[0]);
                }
                *budget = budget.checked_sub(1).ok_or(WireError::TooLarge)?;
            }
        }
    }
    String::from_utf8(line).map_err(|_| WireError::Malformed("non-utf8 header"))
}

fn read_headers(
    r: &mut impl BufRead,
    budget: &mut usize,
) -> Result<Vec<(String, String)>, WireError> {
    let mut headers = Vec::new();
    loop {
        let line = read_line(r, budget)?;
        if line.is_empty() {
            return Ok(headers);
        }
        let (name, value) = line.split_once(':').ok_or(WireError::Malformed("header colon"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
}

fn read_body(
    r: &mut impl BufRead,
    headers: &[(String, String)],
) -> Result<Vec<u8>, WireError> {
    let len: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| v.parse().map_err(|_| WireError::Malformed("content-length")))
        .transpose()?
        .unwrap_or(0);
    if len > MAX_BODY_BYTES {
        return Err(WireError::TooLarge);
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::UnexpectedEof
        } else {
            WireError::Io(e)
        }
    })?;
    Ok(body)
}

/// Reads one request from a connection's reader. The caller owns the
/// buffering so that whatever arrived past this request (a pipelined
/// successor) is still there for the next call.
pub fn read_request(r: &mut impl BufRead) -> Result<Request, WireError> {
    let mut budget = MAX_HEADER_BYTES;
    let start = read_line(r, &mut budget)?;
    let mut parts = start.split_whitespace();
    let method = parts.next().ok_or(WireError::Malformed("method"))?.to_string();
    let target = parts.next().ok_or(WireError::Malformed("target"))?.to_string();
    let version = parts.next().ok_or(WireError::Malformed("version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(WireError::Malformed("version"));
    }
    let headers = read_headers(r, &mut budget)?;
    let body = read_body(r, &headers)?;
    Ok(Request { method, target, headers, body })
}

/// Reads one response from a connection's reader (buffering is the
/// caller's, as for [`read_request`]).
pub fn read_response(r: &mut impl BufRead) -> Result<Response, WireError> {
    let mut budget = MAX_HEADER_BYTES;
    let start = read_line(r, &mut budget)?;
    let mut parts = start.splitn(3, ' ');
    let version = parts.next().ok_or(WireError::Malformed("version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(WireError::Malformed("version"));
    }
    let status: u16 = parts
        .next()
        .ok_or(WireError::Malformed("status"))?
        .parse()
        .map_err(|_| WireError::Malformed("status"))?;
    let reason = parts.next().unwrap_or("").to_string();
    let headers = read_headers(r, &mut budget)?;
    let body = read_body(r, &headers)?;
    Ok(Response { status, reason, headers, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = Request::get("/v2/nginx/manifests/latest")
            .with_header("Accept", "application/vnd.docker.distribution.manifest.v2+json")
            .with_header("Authorization", "Bearer tok123");
        let mut buf = Vec::new();
        req.write_to(&mut buf).unwrap();
        let back = read_request(&mut buf.as_slice()).unwrap();
        assert_eq!(back.method, "GET");
        assert_eq!(back.target, "/v2/nginx/manifests/latest");
        assert_eq!(back.header("accept").unwrap(), "application/vnd.docker.distribution.manifest.v2+json");
        assert_eq!(back.header("AUTHORIZATION").unwrap(), "Bearer tok123");
        assert!(back.body.is_empty());
    }

    #[test]
    fn response_roundtrip_with_body() {
        let resp = Response::new(200, b"{\"ok\":true}".to_vec()).with_header("Content-Type", "application/json");
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        let back = read_response(&mut buf.as_slice()).unwrap();
        assert_eq!(back.status, 200);
        assert_eq!(back.body, b"{\"ok\":true}");
        assert_eq!(back.header("content-type").unwrap(), "application/json");
    }

    #[test]
    fn binary_body_survives() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(70_000).collect();
        let resp = Response::new(200, payload.clone());
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        let back = read_response(&mut buf.as_slice()).unwrap();
        assert_eq!(back.body, payload);
    }

    #[test]
    fn rejects_malformed_start_line() {
        assert!(matches!(read_request(&mut &b"NOPE\r\n\r\n"[..]), Err(WireError::Malformed(_))));
        assert!(matches!(
            read_request(&mut &b"GET /x SPDY/3\r\n\r\n"[..]),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_bad_header() {
        let raw = b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n";
        assert!(matches!(read_request(&mut &raw[..]), Err(WireError::Malformed(_))));
    }

    #[test]
    fn eof_mid_body_detected() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-length: 100\r\n\r\nshort";
        assert!(matches!(read_response(&mut &raw[..]), Err(WireError::UnexpectedEof)));
    }

    #[test]
    fn empty_stream_is_eof() {
        assert!(matches!(read_request(&mut &b""[..]), Err(WireError::UnexpectedEof)));
    }

    #[test]
    fn header_budget_enforced() {
        let mut raw = b"GET / HTTP/1.1\r\nx: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', 64 * 1024));
        raw.extend_from_slice(b"\r\n\r\n");
        assert!(matches!(read_request(&mut raw.as_slice()), Err(WireError::TooLarge)));
    }

    #[test]
    fn truncated_write_reads_as_eof() {
        let resp = Response::new(200, vec![7u8; 1000]);
        let mut buf = Vec::new();
        resp.write_truncated_to(&mut buf, 300).unwrap();
        assert!(matches!(read_response(&mut buf.as_slice()), Err(WireError::UnexpectedEof)));
    }

    #[test]
    fn missing_content_length_means_empty_body() {
        let raw = b"HTTP/1.1 404 Not Found\r\n\r\n";
        let resp = read_response(&mut &raw[..]).unwrap();
        assert_eq!(resp.status, 404);
        assert!(resp.body.is_empty());
    }
}
