// Ablation D — B2B broker offloading (§4.2, Figures 6 and 7).
//
// A broker bridges retailers and suppliers with different order formats.
//   Figure 6 (XML/XSLT):      the broker itself transforms every message
//                             (parse + XSLT + reserialize) — it is the
//                             bottleneck.
//   Figure 7 (morphing):      the broker merely associates the Ecode
//                             transform with the format and forwards bytes;
//                             the receiver converts on arrival.
// We measure per-message broker CPU and receiver CPU for both designs.
#include "bench_support.hpp"

#include "core/receiver.hpp"
#include "core/transform.hpp"
#include "pbio/decode.hpp"
#include "pbio/encode.hpp"
#include "pbio/record.hpp"
#include "xmlx/xml_bind.hpp"
#include "xmlx/xslt.hpp"

namespace {

using namespace morph;
using namespace morph::bench;
using pbio::FormatBuilder;
using pbio::FormatPtr;

// Retailer order format and the supplier's expected shape.
struct RetailerItem {
  const char* sku;
  int32_t quantity;
  double unit_price;
};
struct RetailerOrder {
  const char* order_id;
  const char* retailer;
  int32_t item_count;
  RetailerItem* items;
};

FormatPtr retailer_item_format() {
  static FormatPtr fmt = FormatBuilder("OrderItem", sizeof(RetailerItem))
                             .add_string("sku", offsetof(RetailerItem, sku))
                             .add_int("quantity", 4, offsetof(RetailerItem, quantity))
                             .add_float("unit_price", 8, offsetof(RetailerItem, unit_price))
                             .build();
  return fmt;
}

FormatPtr retailer_order_format() {
  static FormatPtr fmt =
      FormatBuilder("Order", sizeof(RetailerOrder))
          .add_string("order_id", offsetof(RetailerOrder, order_id))
          .add_string("retailer", offsetof(RetailerOrder, retailer))
          .add_int("item_count", 4, offsetof(RetailerOrder, item_count))
          .add_dyn_array("items", retailer_item_format(), "item_count",
                         offsetof(RetailerOrder, items))
          .build();
  return fmt;
}

FormatPtr supplier_order_format() {
  // The supplier wants: reference, source, line count, and per-line sku +
  // total_cents (quantity x price in integer cents).
  static FormatPtr fmt = [] {
    auto line = FormatBuilder("OrderLine")
                    .add_string("sku")
                    .add_int("qty", 4)
                    .add_int("total_cents", 8)
                    .build();
    return FormatBuilder("Order")
        .add_string("reference")
        .add_string("source")
        .add_int("line_count", 4)
        .add_dyn_array("lines", line, "line_count")
        .build();
  }();
  return fmt;
}

core::TransformSpec retailer_to_supplier_spec() {
  core::TransformSpec spec;
  spec.src = retailer_order_format();
  spec.dst = supplier_order_format();
  spec.code = R"ECODE(
    old.reference = new.order_id;
    old.source = new.retailer;
    old.line_count = new.item_count;
    for (int i = 0; i < new.item_count; i++) {
      old.lines[i].sku = new.items[i].sku;
      old.lines[i].qty = new.items[i].quantity;
      old.lines[i].total_cents = new.items[i].quantity * new.items[i].unit_price * 100.0 + 0.5;
    }
  )ECODE";
  return spec;
}

const char* retailer_to_supplier_xslt() {
  return R"XSLT(
<xsl:stylesheet version="1.0">
  <xsl:template match="/Order">
    <Order>
      <reference><xsl:value-of select="order_id"/></reference>
      <source><xsl:value-of select="retailer"/></source>
      <line_count><xsl:value-of select="item_count"/></line_count>
      <xsl:for-each select="items">
        <lines>
          <sku><xsl:value-of select="sku"/></sku>
          <qty><xsl:value-of select="quantity"/></qty>
          <total_cents>0</total_cents>
        </lines>
      </xsl:for-each>
    </Order>
  </xsl:template>
</xsl:stylesheet>)XSLT";
}

RetailerOrder* make_order(uint32_t items, RecordArena& arena, Rng& rng) {
  auto* order = static_cast<RetailerOrder*>(
      pbio::alloc_record(*retailer_order_format(), arena));
  order->order_id = arena.copy_string("ord-" + std::to_string(rng.next_below(100000)));
  order->retailer = arena.copy_string("acme-retail");
  order->item_count = static_cast<int32_t>(items);
  order->items = static_cast<RetailerItem*>(
      pbio::alloc_dyn_array(arena, sizeof(RetailerItem), items));
  for (uint32_t i = 0; i < items; ++i) {
    order->items[i].sku = arena.copy_string("sku-" + std::to_string(rng.next_below(10000)));
    order->items[i].quantity = static_cast<int32_t>(1 + rng.next_below(20));
    order->items[i].unit_price = 0.99 + static_cast<double>(rng.next_below(10000)) / 100.0;
  }
  return order;
}

void paper_table() {
  std::printf("Ablation D: B2B broker designs (ms per order, 50-line orders)\n\n");
  std::printf("%-28s  %12s  %12s\n", "design", "broker-CPU", "receiver-CPU");
  std::printf("%s\n", std::string(58, '-').c_str());

  Rng rng(11);
  RecordArena arena;
  auto* order = make_order(50, arena, rng);

  // --- Figure 6: XML at the broker ----------------------------------------
  std::string retailer_xml;
  xmlx::xml_encode_record(*retailer_order_format(), order, retailer_xml);
  xmlx::Stylesheet sheet = xmlx::Stylesheet::parse(retailer_to_supplier_xslt());

  double broker_xslt_ms = time_median_ms(10 << 10, [&] {
    auto doc = xmlx::xml_parse(retailer_xml);
    auto out = sheet.apply(*doc);
    benchmark::DoNotOptimize(xml_serialize(*out).size());
  });
  // Supplier still parses the transformed XML into its struct.
  auto supplier_doc = sheet.apply(*xmlx::xml_parse(retailer_xml));
  std::string supplier_xml = xml_serialize(*supplier_doc);
  RecordArena sup_arena;
  double recv_xml_ms = time_median_ms(10 << 10, [&] {
    sup_arena.reset();
    benchmark::DoNotOptimize(
        xmlx::xml_decode_record(*supplier_order_format(), supplier_xml, sup_arena));
  });
  std::printf("%-28s  %12.4f  %12.4f\n", "Fig 6: XSLT at broker", broker_xslt_ms, recv_xml_ms);

  // --- Figure 7: morphing, transform runs at the receiver -----------------
  ByteBuffer wire;
  pbio::Encoder(retailer_order_format()).encode(order, wire);
  double broker_forward_ms = time_median_ms(10 << 10, [&] {
    // The broker only re-frames bytes (here: one copy stands in for the
    // forwarding work) and has associated the transform spec out-of-band.
    std::vector<uint8_t> fwd(wire.data(), wire.data() + wire.size());
    benchmark::DoNotOptimize(fwd.data());
  });

  auto spec = retailer_to_supplier_spec();
  core::MorphChain chain({&spec});
  pbio::Decoder decoder(chain.src_format());
  RecordArena morph_arena;
  double recv_morph_ms = time_median_ms(10 << 10, [&] {
    morph_arena.reset();
    void* native = decoder.decode(wire.data(), wire.size(), retailer_order_format(), morph_arena);
    benchmark::DoNotOptimize(chain.apply(native, morph_arena));
  });
  std::printf("%-28s  %12.4f  %12.4f\n", "Fig 7: morph at receiver", broker_forward_ms,
              recv_morph_ms);

  std::printf("\nbroker offload factor: %.1fx less broker CPU per order\n",
              broker_xslt_ms / broker_forward_ms);
  std::printf("note: the morphing receiver ALSO pays less than the XML receiver (%.1fx)\n",
              recv_xml_ms / recv_morph_ms);
}

void bm_broker_xslt(benchmark::State& state) {
  Rng rng(1);
  RecordArena arena;
  auto* order = make_order(static_cast<uint32_t>(state.range(0)), arena, rng);
  std::string xml;
  xmlx::xml_encode_record(*retailer_order_format(), order, xml);
  xmlx::Stylesheet sheet = xmlx::Stylesheet::parse(retailer_to_supplier_xslt());
  for (auto _ : state) {
    auto doc = xmlx::xml_parse(xml);
    auto out = sheet.apply(*doc);
    benchmark::DoNotOptimize(xml_serialize(*out).size());
  }
}
BENCHMARK(bm_broker_xslt)->Arg(10)->Arg(50)->Arg(200);

void bm_receiver_morph(benchmark::State& state) {
  Rng rng(1);
  RecordArena arena;
  auto* order = make_order(static_cast<uint32_t>(state.range(0)), arena, rng);
  ByteBuffer wire;
  pbio::Encoder(retailer_order_format()).encode(order, wire);
  auto spec = retailer_to_supplier_spec();
  core::MorphChain chain({&spec});
  pbio::Decoder decoder(chain.src_format());
  RecordArena out;
  for (auto _ : state) {
    out.reset();
    void* native = decoder.decode(wire.data(), wire.size(), retailer_order_format(), out);
    benchmark::DoNotOptimize(chain.apply(native, out));
  }
}
BENCHMARK(bm_receiver_morph)->Arg(10)->Arg(50)->Arg(200);

}  // namespace

MORPH_BENCH_MAIN(paper_table)
