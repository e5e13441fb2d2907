//! Response checks made outside the timed interval, independent of the
//! program's own range code: the requested ranges are resolved by a small
//! parser here, and body bytes are compared with the synthetic pattern
//! recomputed from the resource path.

use rangeamp::http::Response;

/// What a client response amounts to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// A well-formed answer to the request.
    Ok,
    /// `429`: the defense refused the request.
    Refused,
    /// Anything else: the program answered wrongly.
    Wrong(String),
}

/// The synthetic content of one resource: byte `i` is
/// `(fnv1a(path) ^ i) as u8`, so the pattern repeats every 256 bytes.
#[derive(Debug, Clone)]
pub struct Pattern {
    table: Vec<u8>,
}

impl Pattern {
    /// The pattern of the resource at `path`.
    pub fn of(path: &str) -> Pattern {
        let mut seed = 0xcbf2_9ce4_8422_2325u64;
        for &b in path.as_bytes() {
            seed ^= u64::from(b);
            seed = seed.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Pattern {
            table: (0..512u64).map(|i| (seed ^ i) as u8).collect(),
        }
    }

    /// Whether `bytes` equal the resource content starting at `offset`.
    pub fn matches(&self, offset: u64, bytes: &[u8]) -> bool {
        let start = (offset % 256) as usize;
        bytes
            .chunks(256)
            .all(|chunk| chunk == &self.table[start..start + chunk.len()])
    }
}

/// Resolves a `Range` value against a `size`-byte resource: the
/// satisfiable specs as inclusive `(first, last)` pairs, or `None` when
/// the value is not a byte-range set.
pub fn requested(range: &str, size: u64) -> Option<Vec<(u64, u64)>> {
    let set = range.strip_prefix("bytes=")?;
    let mut out = Vec::new();
    for spec in set.split(',') {
        let (first, last) = spec.trim().split_once('-')?;
        let resolved = match (first.is_empty(), last.is_empty()) {
            (true, false) => {
                let len: u64 = last.parse().ok()?;
                (len > 0 && size > 0).then(|| (size.saturating_sub(len), size - 1))
            }
            (false, true) => {
                let first: u64 = first.parse().ok()?;
                (first < size).then(|| (first, size - 1))
            }
            (false, false) => {
                let (first, last): (u64, u64) = (first.parse().ok()?, last.parse().ok()?);
                if first > last {
                    return None;
                }
                (first < size).then(|| (first, last.min(size - 1)))
            }
            (true, true) => return None,
        };
        out.extend(resolved);
    }
    Some(out)
}

/// Checks a client response to a GET of a `size`-byte resource with
/// `range` as its `Range` header. Also returns how many `206` pieces
/// (single range or multipart parts) the response carried.
pub fn response(
    range: Option<&str>,
    size: u64,
    resp: &Response,
    pattern: &Pattern,
) -> (Verdict, usize) {
    match check(range, size, resp, pattern) {
        Ok(checked) => checked,
        Err(why) => (Verdict::Wrong(why), 0),
    }
}

fn check(
    range: Option<&str>,
    size: u64,
    resp: &Response,
    pattern: &Pattern,
) -> Result<(Verdict, usize), String> {
    let body = resp.body().as_bytes();
    let wanted = range.and_then(|value| requested(value, size));
    let mut pieces = 0;
    match resp.status().as_u16() {
        200 => {
            if body.len() as u64 != size || !pattern.matches(0, body) {
                return Err(format!(
                    "200 body of {} bytes is not the {size}-byte resource",
                    body.len()
                ));
            }
        }
        206 => {
            let wanted = wanted.ok_or("206 to a request without a byte-range set")?;
            if wanted.is_empty() {
                return Err("206 although no range is satisfiable".to_string());
            }
            let union = merge(wanted);
            let content_type = resp.headers().get("content-type").unwrap_or("");
            if let Some(boundary) = content_type
                .strip_prefix("multipart/byteranges")
                .and_then(|rest| rest.split_once("boundary="))
                .map(|(_, b)| b.trim())
            {
                pieces = multipart(body, boundary, |value, bytes| {
                    piece(value, bytes, size, &union, pattern)
                })?;
            } else {
                let value = resp
                    .headers()
                    .get("content-range")
                    .ok_or("206 without Content-Range")?;
                piece(value, body, size, &union, pattern)?;
                pieces = 1;
            }
        }
        416 => match wanted {
            Some(w) if w.is_empty() => {}
            Some(_) => return Err("416 although a range is satisfiable".to_string()),
            None => return Err("416 to a request without a byte-range set".to_string()),
        },
        429 => return Ok((Verdict::Refused, 0)),
        status => return Err(format!("unexpected status {status}")),
    }
    Ok((Verdict::Ok, pieces))
}

fn merge(mut ranges: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    ranges.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(ranges.len());
    for (first, last) in ranges {
        match out.last_mut() {
            Some(prev) if first <= prev.1.saturating_add(1) => prev.1 = prev.1.max(last),
            _ => out.push((first, last)),
        }
    }
    out
}

/// Walks a `multipart/byteranges` body without copying it, handing each
/// part's `Content-Range` value and payload to `each`; returns the part
/// count.
fn multipart(
    body: &[u8],
    boundary: &str,
    mut each: impl FnMut(&str, &[u8]) -> Result<(), String>,
) -> Result<usize, String> {
    let delimiter = format!("--{boundary}\r\n");
    let closing = format!("--{boundary}--");
    let mut rest = body;
    let mut parts = 0;
    while !rest.starts_with(closing.as_bytes()) {
        rest = rest
            .strip_prefix(delimiter.as_bytes())
            .ok_or("multipart: expected a boundary delimiter")?;
        let head_end = rest
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .ok_or("multipart: part headers not terminated")?;
        let head = std::str::from_utf8(&rest[..head_end])
            .map_err(|_| "multipart: non-UTF-8 part headers")?;
        let value = head
            .split("\r\n")
            .filter_map(|line| line.split_once(':'))
            .find(|(name, _)| name.eq_ignore_ascii_case("content-range"))
            .map(|(_, value)| value.trim())
            .ok_or("multipart: part without Content-Range")?;
        rest = &rest[head_end + 4..];
        let (first, last, _) = content_range(value)
            .ok_or_else(|| format!("multipart: bad Content-Range {value:?}"))?;
        let len = usize::try_from(last - first + 1).map_err(|_| "multipart: part too large")?;
        if rest.len() < len {
            return Err("multipart: part body truncated".to_string());
        }
        each(value, &rest[..len])?;
        rest = rest[len..]
            .strip_prefix(b"\r\n")
            .ok_or("multipart: part body not CRLF-terminated")?;
        parts += 1;
    }
    if parts == 0 {
        return Err("multipart response without parts".to_string());
    }
    Ok(parts)
}

/// Parses `bytes first-last/complete`.
fn content_range(value: &str) -> Option<(u64, u64, u64)> {
    let (range, complete) = value.strip_prefix("bytes ")?.split_once('/')?;
    let (first, last) = range.split_once('-')?;
    let (first, last, complete) = (
        first.parse().ok()?,
        last.parse().ok()?,
        complete.parse().ok()?,
    );
    (first <= last && last < complete).then_some((first, last, complete))
}

/// Checks one `206` piece: its `Content-Range` names requested bytes of
/// this resource, and `bytes` are exactly those bytes.
fn piece(
    value: &str,
    bytes: &[u8],
    size: u64,
    union: &[(u64, u64)],
    pattern: &Pattern,
) -> Result<(), String> {
    let (first, last, complete) =
        content_range(value).ok_or_else(|| format!("bad Content-Range {value:?}"))?;
    if complete != size {
        return Err(format!(
            "Content-Range length {complete}, resource has {size}"
        ));
    }
    if bytes.len() as u64 != last - first + 1 {
        return Err(format!("{} body bytes for {first}-{last}", bytes.len()));
    }
    if !union.iter().any(|&(f, l)| f <= first && last <= l) {
        return Err(format!("{first}-{last} was not requested"));
    }
    if !pattern.matches(first, bytes) {
        return Err(format!("bytes {first}-{last} differ from the resource"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requested_resolves_every_spec_form() {
        assert_eq!(requested("bytes=0-0", 10), Some(vec![(0, 0)]));
        assert_eq!(requested("bytes=-3", 10), Some(vec![(7, 9)]));
        assert_eq!(requested("bytes=4-", 10), Some(vec![(4, 9)]));
        assert_eq!(requested("bytes=5-50", 10), Some(vec![(5, 9)]));
        assert_eq!(requested("bytes=0-0,20-30", 10), Some(vec![(0, 0)]));
        assert_eq!(requested("bytes=20-30", 10), Some(vec![]));
        assert_eq!(requested("items=0-1", 10), None);
    }

    #[test]
    fn multipart_walk_checks_every_part() {
        let p = Pattern::of("/t");
        let part = |first: u64, last: u64| {
            let mut out =
                format!("--B\r\nContent-Type: x\r\nContent-Range: bytes {first}-{last}/10\r\n\r\n")
                    .into_bytes();
            out.extend((first..=last).map(|i| p.table[(i % 256) as usize]));
            out.extend_from_slice(b"\r\n");
            out
        };
        let mut body = [part(0, 3), part(2, 9)].concat();
        body.extend_from_slice(b"--B--\r\n");
        let union = [(0, 9)];
        let walk = |body: &[u8]| multipart(body, "B", |v, b| piece(v, b, 10, &union, &p));
        assert_eq!(walk(&body), Ok(2));
        body[54] ^= 1;
        assert!(walk(&body).is_err());
    }

    #[test]
    fn a_416_needs_an_unsatisfiable_byte_range_set() {
        let p = Pattern::of("/t");
        let resp = Response::builder(rangeamp::http::StatusCode::RANGE_NOT_SATISFIABLE).build();
        let verdict = |range| response(range, 10, &resp, &p).0;
        assert_eq!(verdict(Some("bytes=20-30")), Verdict::Ok);
        assert!(matches!(verdict(None), Verdict::Wrong(_)));
        assert!(matches!(verdict(Some("items=0-1")), Verdict::Wrong(_)));
        assert!(matches!(verdict(Some("bytes=0-3")), Verdict::Wrong(_)));
    }

    #[test]
    fn pattern_matches_at_any_offset() {
        let p = Pattern::of("/target.bin");
        let content: Vec<u8> = (0..1000u64).map(|i| p.table[(i % 256) as usize]).collect();
        assert!(p.matches(0, &content));
        assert!(p.matches(300, &content[300..]));
        assert!(!p.matches(1, &content[..10]));
    }
}
