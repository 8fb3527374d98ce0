#include "pfs/striping.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace s4d::pfs {

std::vector<SubRequest> SplitRequest(const StripeConfig& cfg,
                                     byte_count offset, byte_count size) {
  std::vector<SubRequest> out;
  SplitRequestInto(cfg, offset, size, out);
  return out;
}

void SplitRequestInto(const StripeConfig& cfg, byte_count offset,
                      byte_count size, std::vector<SubRequest>& out) {
  S4D_CHECK(cfg.server_count >= 1)
      << "stripe config needs at least one server, got " << cfg.server_count;
  S4D_CHECK(cfg.stripe_size >= 1)
      << "stripe size must be positive, got " << cfg.stripe_size;
  S4D_CHECK(offset >= 0) << "negative file offset " << offset;
  out.clear();
  if (size <= 0) return;

  const byte_count servers = cfg.server_count;
  const byte_count str = cfg.stripe_size;
  const byte_count end = offset + size;
  const byte_count first = offset / str;     // B
  const byte_count last = (end - 1) / str;   // E
  const byte_count span = last - first;      // Δ = E - B
  const byte_count touched = std::min(span + 1, servers);
  out.reserve(static_cast<std::size_t>(touched));

  // Stripe B + j (j < touched) is the first stripe the request puts on
  // server (B + j) % M; that server's stripes then repeat every M stripes
  // up to E. Only stripe B can start mid-stripe (head) and only stripe E
  // can end early (tail). Write B = q_first·M + r_first and
  // Δ = q_span·M + r_span. Server r_first + j starts at local stripe
  // q_first (q_first + 1 once r_first + j wraps past M-1), serves
  // q_span + 1 stripes if j <= r_span and q_span otherwise, and ends on
  // stripe E exactly when j == r_span. So the split divides a fixed number
  // of times per request, however many servers it touches.
  const byte_count q_first = first / servers;
  const byte_count r_first = first % servers;
  const byte_count q_span = span / servers;
  const byte_count r_span = span % servers;
  const byte_count head = offset - first * str;
  const byte_count tail = (last + 1) * str - end;
  auto emit = [&](byte_count j, byte_count server, byte_count local_stripe) {
    const byte_count n = j <= r_span ? q_span + 1 : q_span;
    const byte_count trim_head = j == 0 ? head : 0;
    const byte_count trim_tail = j == r_span ? tail : 0;
    out.push_back(SubRequest{static_cast<int>(server),
                             std::max(offset, (first + j) * str),
                             local_stripe * str + trim_head,
                             n * str - trim_head - trim_tail});
  };
  // Ascending server order: servers r_first, r_first + 1, ... up to M-1
  // come from the first `unwrapped` values of j, and the wrapped servers
  // 0, 1, ... from the rest, which go first.
  const byte_count unwrapped = std::min(touched, servers - r_first);
  for (byte_count j = unwrapped; j < touched; ++j) {
    emit(j, r_first + j - servers, q_first + 1);
  }
  for (byte_count j = 0; j < unwrapped; ++j) emit(j, r_first + j, q_first);

  S4D_DCHECK(std::all_of(out.begin(), out.end(),
                         [](const SubRequest& sub) { return sub.size > 0; }) &&
             std::accumulate(out.begin(), out.end(), byte_count{0},
                             [](byte_count sum, const SubRequest& sub) {
                               return sum + sub.size;
                             }) == size)
      << "split of " << size << " bytes at " << offset
      << " is not a partition into non-empty sub-requests";
}

int InvolvedServerCount(const StripeConfig& cfg, byte_count offset,
                        byte_count size) {
  if (size <= 0) return 0;
  const byte_count str = cfg.stripe_size;
  const byte_count begin_stripe = offset / str;
  const byte_count end_stripe = (offset + size - 1) / str;
  const byte_count span = end_stripe - begin_stripe + 1;
  return static_cast<int>(
      std::min<byte_count>(span, cfg.server_count));
}

byte_count MaxSubRequestSize(const StripeConfig& cfg, byte_count offset,
                             byte_count size) {
  if (size <= 0) return 0;
  const byte_count str = cfg.stripe_size;
  const byte_count servers = cfg.server_count;
  // The paper defines E = floor((f+r)/str); we use the last byte
  // (f+r-1) so that stripe-aligned request ends do not spill into a
  // phantom stripe. The ending-fragment size e is adjusted to match.
  const byte_count begin_stripe = offset / str;
  const byte_count end_stripe = (offset + size - 1) / str;
  const byte_count delta = end_stripe - begin_stripe;  // Δ = E - B

  if (delta == 0) return size;  // Table II case 1
  // Table II implicitly assumes M >= 2: its case-2/4 terms count full
  // stripes on servers other than the B/E-server, which do not exist when
  // there is a single server. With M == 1 the whole request is one
  // sub-request.
  if (servers == 1) return size;

  const byte_count b = str - offset % str;        // beginning fragment
  const byte_count e = (offset + size - 1) % str + 1;  // ending fragment
  const byte_count stripes_per_server = CeilDiv(delta, servers);  // ⌈Δ/M⌉

  if (delta % servers == 0) {
    // Case 2: stripes B and E land on the same server.
    return std::max(b + e + (stripes_per_server - 1) * str,
                    stripes_per_server * str);
  }
  if (delta % servers == 1) {
    // Case 3: the B-server and E-server each add ⌈Δ/M⌉-1 full stripes.
    return std::max(b + (stripes_per_server - 1) * str,
                    e + (stripes_per_server - 1) * str);
  }
  // Case 4: some interior server holds ⌈Δ/M⌉ full stripes.
  return stripes_per_server * str;
}

}  // namespace s4d::pfs
