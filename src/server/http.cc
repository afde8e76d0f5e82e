#include "server/http.h"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstring>

namespace medvault::server {

namespace {

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

std::string ToLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

}  // namespace

std::string HttpRequest::Path() const {
  size_t q = target.find('?');
  return q == std::string::npos ? target : target.substr(0, q);
}

std::string HttpRequest::Query() const {
  size_t q = target.find('?');
  return q == std::string::npos ? "" : target.substr(q + 1);
}

std::string HttpRequest::QueryParam(const std::string& key) const {
  std::string query = Query();
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < amp &&
        query.compare(pos, eq - pos, key) == 0) {
      return query.substr(eq + 1, amp - eq - 1);
    }
    pos = amp + 1;
  }
  return "";
}

bool HttpRequest::KeepAlive() const {
  auto it = headers.find("connection");
  std::string conn = it == headers.end() ? "" : ToLower(it->second);
  if (version == "HTTP/1.0") return conn == "keep-alive";
  return conn != "close";
}

const char* HttpReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 401: return "Unauthorized";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 410: return "Gone";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string SerializeHttpResponse(const HttpResponse& response) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    HttpReasonPhrase(response.status) + "\r\n";
  if (!response.content_type.empty()) {
    out += "Content-Type: " + response.content_type + "\r\n";
  }
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  for (const auto& [name, value] : response.headers) {
    out += name + ": " + value + "\r\n";
  }
  if (response.close) out += "Connection: close\r\n";
  out += "\r\n";
  out += response.body;
  return out;
}

ReadOutcome ParseHttpRequest(std::string* buffer, size_t header_end,
                             const HttpLimits& limits, HttpRequest* out) {
  // Request line.
  const std::string head = buffer->substr(0, header_end);
  size_t line_end = head.find("\r\n");
  if (line_end == std::string::npos) return ReadOutcome::kMalformed;
  {
    const std::string line = head.substr(0, line_end);
    size_t sp1 = line.find(' ');
    size_t sp2 = line.rfind(' ');
    if (sp1 == std::string::npos || sp2 == sp1) return ReadOutcome::kMalformed;
    out->method = line.substr(0, sp1);
    out->target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    out->version = line.substr(sp2 + 1);
    if (out->method.empty() || out->target.empty() ||
        out->version.rfind("HTTP/", 0) != 0) {
      return ReadOutcome::kMalformed;
    }
  }

  // Header fields.
  out->headers.clear();
  size_t pos = line_end + 2;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos) eol = head.size();
    const std::string line = head.substr(pos, eol - pos);
    pos = eol + 2;
    if (line.empty()) continue;
    size_t colon = line.find(':');
    if (colon == std::string::npos) return ReadOutcome::kMalformed;
    const std::string name = ToLower(Trim(line.substr(0, colon)));
    // Repeated Content-Length is the classic request-smuggling vector:
    // any two parsers that disagree on which copy frames the body can
    // be made to see different requests. Repeated Authorization is the
    // same split over identity: a proxy that vets the first copy and a
    // server that uses the last would disagree about who is calling.
    // Reject both outright rather than pick one — even identical
    // duplicates buy nothing legitimate.
    if ((name == "content-length" || name == "authorization") &&
        out->headers.count(name) > 0) {
      return ReadOutcome::kMalformed;
    }
    out->headers[name] = Trim(line.substr(colon + 1));
  }

  // Body length. Transfer-Encoding is deliberately unsupported: a
  // compliance API has no use for chunked uploads, and rejecting them
  // keeps request framing single-pass and cap-checkable up front. That
  // also closes the TE+CL smuggling pair — a request carrying both can
  // never get two different framings out of this parser.
  if (out->headers.count("transfer-encoding") > 0) {
    return ReadOutcome::kMalformed;
  }
  size_t content_length = 0;
  auto cl = out->headers.find("content-length");
  if (cl != out->headers.end()) {
    const std::string& v = cl->second;
    auto [ptr, ec] =
        std::from_chars(v.data(), v.data() + v.size(), content_length, 10);
    if (ec != std::errc() || ptr != v.data() + v.size()) {
      return ReadOutcome::kMalformed;
    }
  }
  if (content_length > limits.max_body_bytes) {
    return ReadOutcome::kBodyTooLarge;
  }

  const size_t frame = header_end + 4 + content_length;
  if (buffer->size() < frame) return ReadOutcome::kMalformed;  // caller bug
  out->body = buffer->substr(header_end + 4, content_length);
  buffer->erase(0, frame);
  return ReadOutcome::kOk;
}

ReadOutcome ReadHttpRequest(int fd, const HttpLimits& limits,
                            std::string* leftover, HttpRequest* out) {
  std::string& buffer = *leftover;
  char chunk[4096];

  // Phase 1: accumulate until the header terminator.
  size_t header_end;
  size_t scan_from = 0;
  while (true) {
    size_t found = buffer.find("\r\n\r\n", scan_from);
    if (found != std::string::npos) {
      header_end = found;
      break;
    }
    if (buffer.size() > limits.max_header_bytes) {
      return ReadOutcome::kHeadersTooLarge;
    }
    scan_from = buffer.size() < 3 ? 0 : buffer.size() - 3;
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) {
      // Clean EOF only between requests; mid-header it is malformed.
      return buffer.empty() ? ReadOutcome::kEof : ReadOutcome::kMalformed;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return ReadOutcome::kTimeout;
      }
      return ReadOutcome::kError;
    }
    buffer.append(chunk, static_cast<size_t>(n));
  }

  // Phase 2: the body. Peek at Content-Length cheaply by parsing once
  // the frame is complete; to know the frame size we need the header
  // parsed, so parse against a copy-free view: find content-length in
  // the raw header block.
  size_t content_length = 0;
  {
    // Lower-case scan of the header block for "content-length:".
    std::string head = ToLower(buffer.substr(0, header_end + 2));
    size_t at = head.find("\r\ncontent-length:");
    if (at == std::string::npos && head.rfind("content-length:", 0) == 0) {
      at = 0;  // first header line (no leading CRLF)
    } else if (at != std::string::npos) {
      at += 2;
    }
    if (at != std::string::npos) {
      // This pre-framing scan honors the FIRST Content-Length while the
      // header map in ParseHttpRequest keeps the LAST — a second copy
      // would let the two framings disagree about where the body ends
      // (request smuggling). Reject before reading a single body byte.
      if (head.find("\r\ncontent-length:", at) != std::string::npos) {
        return ReadOutcome::kMalformed;
      }
      size_t vstart = head.find(':', at) + 1;
      size_t vend = head.find("\r\n", vstart);
      std::string v = Trim(head.substr(vstart, vend - vstart));
      auto [ptr, ec] =
          std::from_chars(v.data(), v.data() + v.size(), content_length, 10);
      if (ec != std::errc() || ptr != v.data() + v.size()) {
        return ReadOutcome::kMalformed;
      }
      if (content_length > limits.max_body_bytes) {
        return ReadOutcome::kBodyTooLarge;
      }
    }
  }
  const size_t frame = header_end + 4 + content_length;
  while (buffer.size() < frame) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) return ReadOutcome::kMalformed;  // truncated body
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return ReadOutcome::kTimeout;
      }
      return ReadOutcome::kError;
    }
    buffer.append(chunk, static_cast<size_t>(n));
  }

  return ParseHttpRequest(&buffer, header_end, limits, out);
}

bool WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace medvault::server
