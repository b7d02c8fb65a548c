#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "test_util.h"

namespace gaea {
namespace {

using ::gaea::testing::TempDir;

// The paper's landcover class (Figure in §2.1.1).
ClassDef LandcoverDef() {
  ClassDef def("landcover", ClassKind::kBase);
  EXPECT_TRUE(def.AddAttribute({"area", TypeId::kString, "char16", ""}).ok());
  EXPECT_TRUE(
      def.AddAttribute({"ref_system", TypeId::kString, "char16", ""}).ok());
  EXPECT_TRUE(def.AddAttribute({"numclass", TypeId::kInt, "int4", ""}).ok());
  EXPECT_TRUE(def.AddAttribute({"data", TypeId::kImage, "image", ""}).ok());
  EXPECT_TRUE(
      def.AddAttribute({"spatialextent", TypeId::kBox, "box", ""}).ok());
  EXPECT_TRUE(
      def.AddAttribute({"timestamp", TypeId::kTime, "abstime", ""}).ok());
  EXPECT_TRUE(def.SetSpatialExtent("spatialextent").ok());
  EXPECT_TRUE(def.SetTemporalExtent("timestamp").ok());
  return def;
}

TEST(ClassDefTest, AttributeManagement) {
  ClassDef def = LandcoverDef();
  EXPECT_EQ(def.attributes().size(), 6u);
  EXPECT_EQ(def.AttributeIndex("numclass").value(), 2u);
  EXPECT_EQ(def.AttributeIndex("ghost").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(def.AddAttribute({"area", TypeId::kInt, "", ""}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_FALSE(def.AddAttribute({"bad name", TypeId::kInt, "", ""}).ok());
}

TEST(ClassDefTest, ExtentTypeEnforcement) {
  ClassDef def("c", ClassKind::kBase);
  ASSERT_OK(def.AddAttribute({"x", TypeId::kInt, "int4", ""}));
  EXPECT_FALSE(def.SetSpatialExtent("x").ok());
  EXPECT_FALSE(def.SetTemporalExtent("x").ok());
  EXPECT_FALSE(def.SetSpatialExtent("missing").ok());
}

TEST(ClassDefTest, DerivedNeedsProcess) {
  ClassDef def("veg_change", ClassKind::kDerived);
  ASSERT_OK(def.AddAttribute({"data", TypeId::kImage, "image", ""}));
  EXPECT_FALSE(def.Validate().ok());  // no DERIVED BY
  ASSERT_OK(def.SetDerivedBy("ndvi-subtraction"));
  EXPECT_TRUE(def.Validate().ok());
  EXPECT_EQ(def.kind(), ClassKind::kDerived);
}

TEST(ClassDefTest, DdlRendering) {
  ClassDef def = LandcoverDef();
  std::string ddl = def.ToDdl();
  EXPECT_NE(ddl.find("CLASS landcover"), std::string::npos);
  EXPECT_NE(ddl.find("SPATIAL EXTENT"), std::string::npos);
  EXPECT_NE(ddl.find("timestamp = abstime"), std::string::npos);
}

TEST(ClassDefTest, SerializationRoundTrip) {
  ClassDef def = LandcoverDef();
  ASSERT_OK(def.SetDerivedBy("unsupervised-classification"));
  def.set_id(7);
  BinaryWriter w;
  def.Serialize(&w);
  BinaryReader r(w.buffer());
  ASSERT_OK_AND_ASSIGN(ClassDef back, ClassDef::Deserialize(&r));
  EXPECT_EQ(back.name(), "landcover");
  EXPECT_EQ(back.id(), 7u);
  EXPECT_EQ(back.kind(), ClassKind::kDerived);
  EXPECT_EQ(back.attributes().size(), 6u);
  EXPECT_EQ(back.spatial_attr(), "spatialextent");
  EXPECT_EQ(back.derived_by(), "unsupervised-classification");
}

TEST(ClassRegistryTest, RegisterAndLookup) {
  ClassRegistry reg;
  ASSERT_OK_AND_ASSIGN(ClassId id, reg.Register(LandcoverDef()));
  EXPECT_NE(id, kInvalidClassId);
  EXPECT_EQ(reg.LookupByName("landcover").value()->id(), id);
  EXPECT_EQ(reg.LookupById(id).value()->name(), "landcover");
  EXPECT_EQ(reg.LookupByName("ghost").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(reg.Register(LandcoverDef()).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(ClassRegistryTest, DerivedByQuery) {
  ClassRegistry reg;
  ClassDef a("c7", ClassKind::kBase);
  ASSERT_OK(a.AddAttribute({"data", TypeId::kImage, "image", ""}));
  ASSERT_OK(a.SetDerivedBy("pca-change"));
  ClassDef b("c8", ClassKind::kBase);
  ASSERT_OK(b.AddAttribute({"data", TypeId::kImage, "image", ""}));
  ASSERT_OK(b.SetDerivedBy("spca-change"));
  ASSERT_OK_AND_ASSIGN(ClassId id_a, reg.Register(std::move(a)));
  ASSERT_OK(reg.Register(std::move(b)).status());
  EXPECT_EQ(reg.DerivedBy("pca-change"), std::vector<ClassId>{id_a});
  EXPECT_TRUE(reg.DerivedBy("nothing").empty());
  EXPECT_EQ(reg.List().size(), 2u);
}

TEST(DataObjectTest, GetSetTypeChecked) {
  ClassDef def = LandcoverDef();
  def.set_id(1);
  DataObject obj(def);
  ASSERT_OK(obj.Set(def, "area", Value::String("africa")));
  ASSERT_OK(obj.Set(def, "numclass", Value::Int(12)));
  EXPECT_EQ(obj.Get(def, "area").value().AsString().value(), "africa");
  // Wrong type rejected.
  EXPECT_FALSE(obj.Set(def, "numclass", Value::String("twelve")).ok());
  EXPECT_FALSE(obj.Set(def, "ghost", Value::Int(1)).ok());
  // Int widens into double attributes.
  ClassDef d2("c", ClassKind::kBase);
  ASSERT_OK(d2.AddAttribute({"resolution", TypeId::kDouble, "float4", ""}));
  d2.set_id(2);
  DataObject o2(d2);
  ASSERT_OK(o2.Set(d2, "resolution", Value::Int(30)));
}

TEST(DataObjectTest, ExtentAccessors) {
  ClassDef def = LandcoverDef();
  def.set_id(1);
  DataObject obj(def);
  ASSERT_OK(obj.Set(def, "spatialextent", Value::OfBox(Box(0, 0, 10, 10))));
  ASSERT_OK(obj.Set(def, "timestamp", Value::Time(AbsTime(1000))));
  EXPECT_EQ(obj.SpatialExtent(def).value(), Box(0, 0, 10, 10));
  EXPECT_EQ(obj.Timestamp(def).value(), AbsTime(1000));

  ClassDef bare("bare", ClassKind::kBase);
  ASSERT_OK(bare.AddAttribute({"x", TypeId::kInt, "int4", ""}));
  bare.set_id(2);
  DataObject o2(bare);
  EXPECT_EQ(o2.SpatialExtent(bare).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(DataObjectTest, SerializationRoundTrip) {
  ClassDef def = LandcoverDef();
  def.set_id(3);
  DataObject obj(def);
  obj.set_oid(99);
  ASSERT_OK(obj.Set(def, "area", Value::String("sahel")));
  ASSERT_OK(obj.Set(def, "data",
                    Value::OfImage(*Image::FromValues(2, 2, {1, 2, 3, 4}))));
  BinaryWriter w;
  obj.Serialize(&w);
  BinaryReader r(w.buffer());
  ASSERT_OK_AND_ASSIGN(DataObject back, DataObject::Deserialize(&r));
  EXPECT_EQ(back.oid(), 99u);
  EXPECT_EQ(back.class_id(), 3u);
  EXPECT_EQ(back.values(), obj.values());
}

TEST(ConceptRegistryTest, RegisterAndIsADag) {
  ConceptRegistry reg;
  ConceptDef desert{0, "desert", "imprecise arid region", {}};
  ConceptDef hot{0, "hot_trade_wind_desert", "rainfall < 250mm", {}};
  ConceptDef ice{0, "ice_snow_desert", "polar lands", {}};
  ASSERT_OK_AND_ASSIGN(ConceptId d, reg.Register(desert));
  ASSERT_OK_AND_ASSIGN(ConceptId h, reg.Register(hot));
  ASSERT_OK_AND_ASSIGN(ConceptId i, reg.Register(ice));
  ASSERT_OK(reg.AddIsA(h, d));
  ASSERT_OK(reg.AddIsA(i, d));
  EXPECT_EQ(reg.Parents(h), std::vector<ConceptId>{d});
  EXPECT_EQ(reg.Children(d).size(), 2u);
  EXPECT_EQ(reg.Ancestors(h).value(), std::set<ConceptId>{d});
  EXPECT_EQ(reg.Descendants(d).value(), (std::set<ConceptId>{h, i}));
  // Cycles rejected.
  EXPECT_EQ(reg.AddIsA(d, h).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.AddIsA(d, d).code(), StatusCode::kInvalidArgument);
}

TEST(ConceptRegistryTest, DiamondDagAllowed) {
  // DAGs are allowed ("hierarchies can be general directed acyclic graphs").
  ConceptRegistry reg;
  ASSERT_OK_AND_ASSIGN(ConceptId a, reg.Register({0, "a", "", {}}));
  ASSERT_OK_AND_ASSIGN(ConceptId b, reg.Register({0, "b", "", {}}));
  ASSERT_OK_AND_ASSIGN(ConceptId c, reg.Register({0, "c", "", {}}));
  ASSERT_OK_AND_ASSIGN(ConceptId d, reg.Register({0, "d", "", {}}));
  ASSERT_OK(reg.AddIsA(b, a));
  ASSERT_OK(reg.AddIsA(c, a));
  ASSERT_OK(reg.AddIsA(d, b));
  ASSERT_OK(reg.AddIsA(d, c));  // diamond
  EXPECT_EQ(reg.Ancestors(d).value(), (std::set<ConceptId>{a, b, c}));
}

TEST(ConceptRegistryTest, CoveredClassesIncludeDescendants) {
  ConceptRegistry reg;
  ASSERT_OK_AND_ASSIGN(ConceptId desert, reg.Register({0, "desert", "", {}}));
  ASSERT_OK_AND_ASSIGN(ConceptId hot, reg.Register({0, "hot", "", {}}));
  ASSERT_OK(reg.AddIsA(hot, desert));
  ASSERT_OK(reg.AddMemberClass(hot, 2));
  ASSERT_OK(reg.AddMemberClass(hot, 3));
  ASSERT_OK(reg.AddMemberClass(desert, 9));
  EXPECT_EQ(reg.CoveredClasses(desert).value(), (std::set<ClassId>{2, 3, 9}));
  EXPECT_EQ(reg.CoveredClasses(hot).value(), (std::set<ClassId>{2, 3}));
  EXPECT_EQ(reg.ConceptsOfClass(2), std::vector<ConceptId>{hot});
}

TEST(CatalogTest, DefinitionsPersistAcrossReopen) {
  TempDir dir("catalog");
  ClassId landcover_id;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Catalog> cat,
                         Catalog::Open(dir.path()));
    ASSERT_OK_AND_ASSIGN(landcover_id, cat->DefineClass(LandcoverDef()));
    ASSERT_OK(cat->DefineConcept("desert", "arid regions").status());
    ASSERT_OK(cat->DefineConcept("hot_desert", "rainfall<250").status());
    ASSERT_OK(cat->AddIsA("hot_desert", "desert"));
    ASSERT_OK(cat->AddConceptMember("hot_desert", "landcover"));
    ASSERT_OK(cat->Flush());
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Catalog> cat, Catalog::Open(dir.path()));
  EXPECT_EQ(cat->classes().LookupByName("landcover").value()->id(),
            landcover_id);
  ASSERT_OK_AND_ASSIGN(const ConceptDef* desert,
                       cat->concepts().LookupByName("desert"));
  EXPECT_EQ(cat->concepts().CoveredClasses(desert->id).value(),
            std::set<ClassId>{landcover_id});
}

TEST(CatalogTest, ObjectsRoundTripWithIndexes) {
  TempDir dir("catalog");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Catalog> cat, Catalog::Open(dir.path()));
  ASSERT_OK_AND_ASSIGN(ClassId cid, cat->DefineClass(LandcoverDef()));
  ASSERT_OK_AND_ASSIGN(const ClassDef* def, cat->classes().LookupById(cid));

  std::vector<Oid> oids;
  for (int i = 0; i < 5; ++i) {
    DataObject obj(*def);
    ASSERT_OK(obj.Set(*def, "area", Value::String("africa")));
    ASSERT_OK(obj.Set(*def, "numclass", Value::Int(12)));
    ASSERT_OK(obj.Set(*def, "spatialextent",
                      Value::OfBox(Box(i, 0, i + 1, 1))));
    ASSERT_OK(obj.Set(*def, "timestamp", Value::Time(AbsTime(i * 100))));
    ASSERT_OK_AND_ASSIGN(Oid oid, cat->InsertObject(std::move(obj)));
    oids.push_back(oid);
  }
  EXPECT_EQ(cat->ObjectCount(), 5);
  EXPECT_EQ(cat->ObjectsOfClass(cid).value(), oids);
  // Temporal range via class filter and via the time index.
  EXPECT_EQ(
      cat->ObjectsOfClassInRange(cid, AbsTime(100), AbsTime(300)).value(),
      (std::vector<Oid>{oids[1], oids[2], oids[3]}));
  EXPECT_EQ(cat->ObjectsInTimeRange(AbsTime(400), AbsTime(400)).value(),
            std::vector<Oid>{oids[4]});
  // Round-trip one object.
  ASSERT_OK_AND_ASSIGN(DataObject back, cat->GetObject(oids[2]));
  EXPECT_EQ(back.Get(*def, "area").value().AsString().value(), "africa");
  EXPECT_EQ(back.SpatialExtent(*def).value(), Box(2, 0, 3, 1));
}

TEST(CatalogTest, InsertRejectsTypeErrors) {
  TempDir dir("catalog");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Catalog> cat, Catalog::Open(dir.path()));
  ASSERT_OK_AND_ASSIGN(ClassId cid, cat->DefineClass(LandcoverDef()));
  ASSERT_OK_AND_ASSIGN(const ClassDef* def, cat->classes().LookupById(cid));
  DataObject obj(*def);
  // Bypass Set's checking by building an object of the wrong class id.
  DataObject bogus;
  EXPECT_FALSE(cat->InsertObject(bogus).ok());
  ASSERT_OK(obj.Set(*def, "numclass", Value::Int(3)));
  EXPECT_TRUE(cat->InsertObject(std::move(obj)).ok());  // nulls allowed
}

TEST(CatalogTest, DeleteObjectRemovesFromIndexes) {
  TempDir dir("catalog");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Catalog> cat, Catalog::Open(dir.path()));
  ASSERT_OK_AND_ASSIGN(ClassId cid, cat->DefineClass(LandcoverDef()));
  ASSERT_OK_AND_ASSIGN(const ClassDef* def, cat->classes().LookupById(cid));
  DataObject obj(*def);
  ASSERT_OK(obj.Set(*def, "timestamp", Value::Time(AbsTime(500))));
  ASSERT_OK_AND_ASSIGN(Oid oid, cat->InsertObject(std::move(obj)));
  ASSERT_OK(cat->DeleteObject(oid));
  EXPECT_FALSE(cat->ContainsObject(oid).value());
  EXPECT_TRUE(cat->ObjectsOfClass(cid).value().empty());
  EXPECT_TRUE(
      cat->ObjectsInTimeRange(AbsTime(0), AbsTime(1000)).value().empty());
}

TEST(CatalogTest, ObjectsPersistAcrossReopen) {
  TempDir dir("catalog");
  Oid oid;
  ClassId cid;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Catalog> cat,
                         Catalog::Open(dir.path()));
    ASSERT_OK_AND_ASSIGN(cid, cat->DefineClass(LandcoverDef()));
    ASSERT_OK_AND_ASSIGN(const ClassDef* def, cat->classes().LookupById(cid));
    DataObject obj(*def);
    ASSERT_OK(obj.Set(*def, "area", Value::String("sahara")));
    ASSERT_OK(obj.Set(*def, "data", Value::OfImage(*Image::FromValues(
                                        8, 8, std::vector<double>(64, 1.5)))));
    ASSERT_OK_AND_ASSIGN(oid, cat->InsertObject(std::move(obj)));
    ASSERT_OK(cat->Flush());
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Catalog> cat, Catalog::Open(dir.path()));
  ASSERT_OK_AND_ASSIGN(DataObject back, cat->GetObject(oid));
  ASSERT_OK_AND_ASSIGN(const ClassDef* def, cat->classes().LookupById(cid));
  EXPECT_EQ(back.Get(*def, "area").value().AsString().value(), "sahara");
  ASSERT_OK_AND_ASSIGN(Value data, back.Get(*def, "data"));
  EXPECT_EQ(data.AsImage().value()->Get(3, 3), 1.5);
}

}  // namespace
}  // namespace gaea
